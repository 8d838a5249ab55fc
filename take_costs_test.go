package tiamat_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"tiamat"
	"tiamat/clock"
	"tiamat/trace"
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
		remoteTake(t, a, b)
	}
	waitQuiet(shared)
	const takes = 100
	beforeA, beforeB, beforeShared := a.Metrics().Snapshot(), b.Metrics().Snapshot(), shared.Snapshot()
	for k := 0; k < takes; k++ {
		remoteTake(t, a, b)
	}
	waitQuiet(shared)

	holder := map[string]int64{trace.CtrOpsOut: 1, trace.CtrTuplesStored: 1, trace.CtrTuplesTaken: 1}
	taker := map[string]int64{trace.CtrOpsInp: 1, trace.CtrOpsRemoteHit: 1, trace.CtrOpsSatisfied: 1}
	all := map[string]int64{trace.CtrMsgsSent: 4, trace.CtrUnicasts: 4, trace.CtrBytesSent: remoteTakeWireBytes}
	for _, m := range []map[string]int64{holder, taker} {
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
			if d != takes*c.want[k] {
				t.Errorf("%s: %s advanced %d over %d takes, want %d per take", c.name, k, d, takes, c.want[k])
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
