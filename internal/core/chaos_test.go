package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tiamat/internal/discovery"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// The chaos suite runs real instances over a memnet configured with
// loss, duplication, reordering, and corruption simultaneously, and
// asserts the protocol's end-to-end invariant: every tuple is taken
// exactly once — none lost, none duplicated — with the retry and dedup
// machinery visibly doing the work. These tests use the real clock so
// retransmission timers actually fire.

// chaosRig is a rig on the wall clock with fault injection.
type chaosRig struct {
	net  *memnet.Network
	met  *trace.Metrics
	inst map[wire.Addr]*Instance
}

func newChaosRig(t *testing.T, addrs []wire.Addr, f memnet.Faults, mutate func(*Config)) *chaosRig {
	t.Helper()
	met := &trace.Metrics{}
	net := memnet.New(memnet.WithMetrics(met), memnet.WithFaults(f), memnet.WithSeed(7))
	r := &chaosRig{net: net, met: met, inst: make(map[wire.Addr]*Instance)}
	for _, a := range addrs {
		ep, err := net.Attach(a)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Endpoint: ep,
			Metrics:  met,
			// Tight timers so a test's worth of chaos fits in seconds.
			ContactTimeout: 25 * time.Millisecond,
			RetryAttempts:  4,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		inst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.inst[a] = inst
	}
	net.ConnectAll()
	t.Cleanup(func() {
		for _, i := range r.inst {
			i.Close()
		}
		net.Close()
	})
	return r
}

func TestChaosTakesNeverLoseOrDuplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds of wall time")
	}
	sweep := []memnet.Faults{
		{Loss: 0.2, Dup: 0.1, Reorder: 0.2},
		{Loss: 0.2, Dup: 0.2, Reorder: 0.3, Corrupt: 0.05},
		{Loss: 0.3, Dup: 0.1, Reorder: 0.2, Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
	}
	for _, f := range sweep {
		f := f
		name := fmt.Sprintf("loss=%.2f,dup=%.2f,reorder=%.2f,corrupt=%.2f", f.Loss, f.Dup, f.Reorder, f.Corrupt)
		t.Run(name, func(t *testing.T) {
			r := newChaosRig(t, []wire.Addr{"p0", "p1", "consumer"}, f, nil)
			producers := []wire.Addr{"p0", "p1"}
			const perProducer = 10
			total := perProducer * len(producers)
			for pi, p := range producers {
				for k := 0; k < perProducer; k++ {
					id := int64(pi*100 + k)
					err := r.inst[p].Out(req(id), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100}))
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			consumer := r.inst["consumer"]
			seen := map[int64]bool{}
			deadline := time.Now().Add(45 * time.Second)
			for len(seen) < total && time.Now().Before(deadline) {
				res, ok, err := consumer.Inp(context.Background(), reqTmpl(),
					lease.Flexible(lease.Terms{Duration: 2 * time.Second, MaxRemotes: 64}))
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue // transient miss under chaos; retry the probe
				}
				v, _ := res.Tuple.IntAt(1)
				if seen[v] {
					t.Fatalf("tuple %d taken twice", v)
				}
				seen[v] = true
			}
			if len(seen) != total {
				t.Fatalf("collected %d/%d tuples under %s", len(seen), total, name)
			}

			// No tuple may linger or reappear: give accept acks and any
			// in-flight duplicates a moment to settle, then check every
			// producer holds only its space-info tuple.
			settled := time.Now().Add(5 * time.Second)
			for time.Now().Before(settled) {
				if r.inst["p0"].LocalSpace().Count() == 1 && r.inst["p1"].LocalSpace().Count() == 1 {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, p := range producers {
				if n := r.inst[p].LocalSpace().Count(); n != 1 {
					t.Fatalf("%s still holds %d tuples (reinstated after accept?)", p, n)
				}
			}
			if _, ok, _ := consumer.Inp(context.Background(), reqTmpl(),
				lease.Flexible(lease.Terms{Duration: 2 * time.Second, MaxRemotes: 64})); ok {
				t.Fatal("extra tuple appeared after drain")
			}

			// The machinery must have visibly worked: lost frames forced
			// retransmissions, and duplicates were dropped.
			if got := r.met.Get(trace.CtrRetries); got == 0 {
				t.Error("no retransmissions recorded under loss")
			}
			if got := r.met.Get(trace.CtrDedupDrops); got == 0 {
				t.Error("no dedup drops recorded under duplication")
			}
			if f.Corrupt > 0 {
				if got := r.met.Get(trace.CtrCorruptFrames); got == 0 {
					t.Error("no corrupt frames detected despite corruption")
				}
			}
		})
	}
}

// TestChaosBlockingReadCompletes pins the blocking path: a rd issued
// before the tuple exists must survive loss and duplication of the op,
// result, and cancel frames.
func TestChaosBlockingReadCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds of wall time")
	}
	f := memnet.Faults{Loss: 0.2, Dup: 0.15, Reorder: 0.2}
	r := newChaosRig(t, []wire.Addr{"a", "b"}, f, func(c *Config) {
		// A lost multicast would otherwise strand the blocking op with no
		// retransmission path (multicast audiences are not contacts);
		// continuous rediscovery is the designed recovery for that.
		c.ContinuousDiscovery = true
		c.RediscoverInterval = 100 * time.Millisecond
	})
	a, b := r.inst["a"], r.inst["b"]

	done := make(chan error, 1)
	go func() {
		_, err := b.Rd(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: 20 * time.Second, MaxRemotes: 64}))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocking rd under chaos: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("blocking rd hung under chaos")
	}
	// The read must not have consumed the tuple.
	if _, ok, _ := a.Rdp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("rd consumed the tuple")
	}
}

// TestChaosSuspicionRecovers drives a responder into suspicion via a
// total blackout and verifies it is skipped, then restored to service
// once it answers again.
func TestChaosSuspicionRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is seconds of wall time")
	}
	r := newChaosRig(t, []wire.Addr{"a", "b"}, memnet.Faults{}, nil)
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	// Populate b's responder list with a.
	if _, ok, err := b.Rdp(context.Background(), reqTmpl(),
		lease.Flexible(lease.Terms{Duration: 2 * time.Second, MaxRemotes: 16})); err != nil || !ok {
		t.Fatalf("warm-up probe: ok=%v err=%v", ok, err)
	}

	// Blackout: a stays attached (so memnet keeps it visible and unicast
	// does not error) but every frame is lost. Probes must fail after
	// retries and raise suspicion rather than hang.
	r.net.SetFaults(memnet.Faults{Loss: 1.0})
	for k := 0; k < discovery.SuspectThreshold+1; k++ {
		if _, ok, _ := b.Rdp(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: time.Second, MaxRemotes: 16})); ok {
			t.Fatal("probe succeeded under total loss")
		}
	}
	if got := r.met.Get(trace.CtrSuspicions); got == 0 {
		t.Fatal("no suspicion raised after repeated silent failures")
	}

	// Heal the network; after the cooldown the responder serves again.
	r.net.SetFaults(memnet.Faults{})
	deadline := time.Now().Add(40 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok, _ := b.Rdp(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: time.Second, MaxRemotes: 16})); ok {
			return // recovered
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("responder never recovered from suspicion")
}
