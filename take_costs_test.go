package tiamat_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"tiamat"
	"tiamat/clock"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// countingClock is the wall clock, counting its readings.
type countingClock struct {
	clock.Real
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

// remoteTakeClockReads is the ceiling on the clock readings one warm
// remote take costs over memnet, both nodes together (DESIGN.md §7, "One
// reading per event"): the Out's expiry, the responder's store
// pick and its frame's one reading, and the walk's two events, its start
// and the found reply, whose reading also promotes the finder.
const remoteTakeClockReads = 5

// TestRemoteTakeClockReads pins how often a remote take reads the clock:
// the memnet pair runs on a counting clock, handed as Config.Clock, which
// each node's deadline queue, lease manager, store and responder list all
// read through.
func TestRemoteTakeClockReads(t *testing.T) {
	clk := new(countingClock)
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	newNode := func(name wire.Addr) *tiamat.Instance {
		ep, _ := net.Attach(name)
		inst, err := tiamat.New(tiamat.Config{Endpoint: ep, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		return inst
	}
	a, b := newNode("n0"), newNode("n1")
	net.ConnectAll()
	for k := 0; k < 200; k++ {
		remoteTake(t, a, b)
	}
	waitQuiet(net.Metrics())
	const takes = 1000
	before := clk.reads.Load()
	for k := 0; k < takes; k++ {
		remoteTake(t, a, b)
	}
	waitQuiet(net.Metrics())
	// The node's sweeps read the clock too, once a second or so: over the
	// takes that is a few hundredths of a reading per take, never half.
	if got := float64(clk.reads.Load()-before) / takes; math.Round(got) > remoteTakeClockReads {
		t.Fatalf("Out + remote Inp: %.3f clock readings, want at most %d", got, remoteTakeClockReads)
	}
}

// TestRemoteTakeCounterDeltas pins what one warm remote take counts: each
// node's own registry and the registry the nodes and the network share
// advance by exactly these deltas, and by nothing else.
func TestRemoteTakeCounterDeltas(t *testing.T) {
	pinCounterDeltas(t, remoteTake,
		map[string]int64{trace.CtrOpsOut: 1, trace.CtrTuplesStored: 1, trace.CtrTuplesTaken: 1},
		map[string]int64{trace.CtrOpsInp: 1, trace.CtrOpsRemoteHit: 1, trace.CtrOpsSatisfied: 1},
		map[string]int64{trace.CtrMsgsSent: 4, trace.CtrUnicasts: 4, trace.CtrBytesSent: remoteTakeWireBytes})
}

// TestNonblockingMissCounterDeltas pins what one warm remote Rdp miss
// counts, as TestRemoteTakeCounterDeltas does the take's: the op to the
// listed responder and its not-found, two frames. The walk's closing
// multicast skips the responder that answered, so it reaches nobody, and
// nothing is received twice.
func TestNonblockingMissCounterDeltas(t *testing.T) {
	pinCounterDeltas(t, remoteMiss,
		map[string]int64{},
		map[string]int64{trace.CtrOpsRdp: 1, trace.CtrOpsEmpty: 1, trace.CtrDiscoverRounds: 1},
		map[string]int64{trace.CtrMsgsSent: 2, trace.CtrUnicasts: 2, trace.CtrMulticasts: 1, trace.CtrBytesSent: remoteMissWireBytes})
}

// pinCounterDeltas runs op between a warm memnet pair, a holding and b
// asking, and fails t unless a's own registry advances by exactly holder's
// deltas per op, b's by taker's, and the registry the nodes and the
// network share by all three maps' together, and none of them by anything
// else.
func pinCounterDeltas(t *testing.T, op func(testing.TB, *tiamat.Instance, *tiamat.Instance), holder, taker, network map[string]int64) {
	t.Helper()
	shared := new(trace.Metrics)
	net := memnet.New(memnet.WithMetrics(shared))
	t.Cleanup(func() { net.Close() })
	newNode := func(name wire.Addr) *tiamat.Instance {
		ep, _ := net.Attach(name)
		inst, err := tiamat.New(tiamat.Config{Endpoint: ep, Metrics: shared})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		return inst
	}
	a, b := newNode("n0"), newNode("n1")
	net.ConnectAll()
	for k := 0; k < 200; k++ {
		op(t, a, b)
	}
	waitQuiet(shared)
	const ops = 100
	beforeA, beforeB, beforeShared := a.Metrics().Snapshot(), b.Metrics().Snapshot(), shared.Snapshot()
	for k := 0; k < ops; k++ {
		op(t, a, b)
	}
	waitQuiet(shared)

	all := map[string]int64{}
	for _, m := range []map[string]int64{holder, taker, network} {
		for k, v := range m {
			all[k] = v
		}
	}
	for _, c := range []struct {
		name   string
		met    *trace.Metrics
		before map[string]int64
		want   map[string]int64
	}{
		{"holder", a.Metrics(), beforeA, holder},
		{"taker", b.Metrics(), beforeB, taker},
		{"shared", shared, beforeShared, all},
	} {
		diff := c.met.Diff(c.before)
		for k := range c.want {
			if _, ok := diff[k]; !ok {
				diff[k] = 0
			}
		}
		for k, d := range diff {
			if d != ops*c.want[k] {
				t.Errorf("%s: %s advanced %d over %d ops, want %d per op", c.name, k, d, ops, c.want[k])
			}
		}
	}
}

// waitQuiet returns once met's network has sent no frame for three polls
// running: a take returns at its result, and its accept and the accept's
// ack go on behind it.
func waitQuiet(met *trace.Metrics) {
	for last, still := int64(-1), 0; still < 3; time.Sleep(10 * time.Millisecond) {
		if n := met.Get(trace.CtrMsgsSent); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
}

// Per warm remote take at Replicas: 2 over memnet, both nodes together:
// one write-through replicate from the origin; eight frames (the
// replicate and its ack, the taker's proof-of-death probe of the live
// origin, the op, result, accept and ack, and the origin's invalidation of
// the backup; the taker's invalidation multicast is counted apart); the
// objects BenchmarkRemoteInpTwoNodesReplicated reads; and the clock
// readings.
const (
	replicatedTakeMsgs       = 8
	replicatedTakeAllocs     = 50
	replicatedTakeClockReads = 10
)

// TestReplicatedTakeCosts pins what replication adds to a warm remote
// take, as the tests above pin the take at R=1. Both endpoints are
// attached and connected before either node is built: a node built first
// multicasts its hello to nobody, never enters its peer's ring, and
// replicates nothing.
func TestReplicatedTakeCosts(t *testing.T) {
	clk := new(countingClock)
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	// One-byte addresses, as the benchmark's: the runtime hands out a
	// decoded one-byte string without allocating it.
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	net.ConnectAll()
	newNode := func(ep transport.Endpoint) *tiamat.Instance {
		inst, err := tiamat.New(tiamat.Config{Endpoint: ep, Clock: clk, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		return inst
	}
	a, b := newNode(epA), newNode(epB)
	for k := 0; k < 200; k++ {
		remoteTake(t, a, b)
	}
	met := net.Metrics()
	waitQuiet(met)
	const takes = 1000
	writes, msgs, reads := a.Metrics().Get(trace.CtrReplWrites), met.Get(trace.CtrMsgsSent), clk.reads.Load()
	for k := 0; k < takes; k++ {
		remoteTake(t, a, b)
	}
	waitQuiet(met)
	if got := a.Metrics().Get(trace.CtrReplWrites) - writes; got != takes {
		t.Errorf("origin sent %d replicates over %d takes, want one per take", got, takes)
	}
	if got := float64(met.Get(trace.CtrMsgsSent)-msgs) / takes; got != replicatedTakeMsgs {
		t.Errorf("%.3f frames per replicated take, want %d", got, replicatedTakeMsgs)
	}
	// The sweeps read the clock a few hundredths of a time per take.
	if got := float64(clk.reads.Load()-reads) / takes; math.Round(got) > replicatedTakeClockReads {
		t.Errorf("%.3f clock readings per replicated take, want at most %d", got, replicatedTakeClockReads)
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops some of what is put back
	}
	if got := testing.AllocsPerRun(takes, func() { remoteTake(t, a, b) }); got > replicatedTakeAllocs {
		t.Errorf("Out + remote Inp at R=2: %.2f allocs, want at most %d", got, replicatedTakeAllocs)
	}
}
