package core

import (
	"context"
	"testing"
	"time"

	"tiamat/lease"
	"tiamat/trace"
	"tiamat/wire"
)

// These tests cover the mobility layer (DESIGN.md §10): visibility-event
// re-arming of in-flight blocking operations, the orphan sweeper, and the
// per-instance retry-jitter source.

func longLease() lease.Requester {
	return lease.Flexible(lease.Terms{Duration: time.Hour, MaxRemotes: 100})
}

// TestRearmServesLateJoiner is the canonical mobile scenario (paper §2,
// Figure 1): the holder walks into range only after the blocking take has
// started. Continuous discovery is off, so the join-event re-arm is the
// only path to the newcomer — on pre-mobility main this test blocks until
// lease expiry.
func TestRearmServesLateJoiner(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]

	done := make(chan Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := a.In(context.Background(), reqTmpl(), longLease())
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	eventually(t, "op started", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.ops) > 0
	})

	// c walks into range now: its boot hello reaches a, a's responder
	// list emits a join event, and the waiting op re-arms toward c.
	ep, err := r.net.Attach("c")
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetVisible("a", "c", true)
	c, err := New(Config{Endpoint: ep, Clock: r.clk, Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Out(req(7), nil); err != nil {
		t.Fatal(err)
	}

	select {
	case res := <-done:
		if res.From != "c" {
			t.Fatalf("served by %s, want c", res.From)
		}
		if id, err := res.Tuple.IntAt(1); err != nil || id != 7 {
			t.Fatalf("got tuple %v", res.Tuple)
		}
	case err := <-errc:
		t.Fatalf("In failed: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("re-arm never contacted the late joiner")
	}
	if r.met.Get(trace.CtrRearms) == 0 {
		t.Fatal("no re-arm counted")
	}
	if a.Mobility().Rearms == 0 {
		t.Fatal("Mobility() missed the re-arm")
	}
	// At-most-once: the taken tuple is gone from c.
	if _, ok := c.LocalSpace().Rdp(reqTmpl()); ok {
		t.Fatal("tuple still present at c after take")
	}
}

// TestRearmedLoserStillCancelled: a re-armed contact that does not win
// holds a wait like any walked or hedged one, and the settlement cancel
// must reach it by unicast — only the winner, whose wait ended with its
// own found reply, is left out.
func TestRearmedLoserStillCancelled(t *testing.T) {
	var cancels cancelLog
	r := newRig(t, []wire.Addr{"a"}, cancels.tap)
	a := r.inst["a"]

	done := make(chan Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := a.In(context.Background(), reqTmpl(), longLease())
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	eventually(t, "op started", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.ops) > 0
	})

	join := func(addr wire.Addr) *Instance {
		ep, err := r.net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		r.net.SetVisible("a", addr, true)
		inst, err := New(Config{Endpoint: ep, Clock: r.clk, Metrics: r.met})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		return inst
	}
	// d walks in empty-handed: the op re-arms toward it and parks a wait.
	d := join("d")
	eventually(t, "re-armed wait parked at d", func() bool { return waitCount(d) == 1 })
	// c walks in with the tuple and wins.
	c := join("c")
	if err := c.Out(req(7), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.From != "c" {
			t.Fatalf("served by %s, want c", res.From)
		}
	case err := <-errc:
		t.Fatalf("In failed: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("re-arm never reached the holder")
	}
	if got := cancels.sent("a"); !sameAddrs(got, "d") {
		t.Fatalf("cancels went to %v, want the re-armed loser [d] and not the winner", got)
	}
	eventually(t, "loser's wait withdrawn", func() bool { return waitCount(d) == 0 && waitCount(c) == 0 })
}

// advanceUntil steps the virtual clock in small increments (so re-armed
// timers keep firing) until cond holds or 2s of real time pass.
func advanceUntil(t *testing.T, r *rig, step time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		r.clk.Advance(step)
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

func TestOrphanSweepStopsWaitsForVanishedPeer(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) {
		c.ContactTimeout = 25 * time.Millisecond // sweep every 100ms, reap after 300ms
	})
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]

	errc := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(), longLease())
		errc <- err
	}()
	eventually(t, "a serves b's wait", func() bool {
		return waitsLen(a) == 1
	})

	// b drops off the network without a goodbye. The sweeper's probes
	// fail, suspicion ripens, and the served wait is reclaimed long
	// before its hour-long lease.
	r.net.Isolate("b")
	advanceUntil(t, r, 100*time.Millisecond, "orphaned wait swept", func() bool {
		return waitsLen(a) == 0
	})
	if got := a.Mobility().OrphanWaits; got != 1 {
		t.Fatalf("orphan waits = %d, want 1", got)
	}
	if a.Mobility().OrphanProbes == 0 {
		t.Fatal("no probes counted")
	}
	b.Close() // unblock the In goroutine
	<-errc
}

func TestOrphanSweepReinstatesHoldsForVanishedPeer(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		c.ContactTimeout = 25 * time.Millisecond // sweep every 100ms, reap after 300ms
	})
	a := r.inst["a"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}

	// A raw requester takes the tuple into a tentative hold and then
	// vanishes without ever accepting. The TTL-derived grace timer is an
	// hour out; only the orphan sweeper can reinstate sooner.
	x, err := r.net.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetVisible("a", "x", true)
	if err := x.Send("a", &wire.Message{
		Type: wire.TOp, ID: 1, From: "x", Op: wire.OpInp, Template: reqTmpl(), TTL: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "hold registered", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.holds) == 1
	})
	if _, ok := a.LocalSpace().Rdp(reqTmpl()); ok {
		t.Fatal("held tuple still visible")
	}

	r.net.Isolate("x")
	advanceUntil(t, r, 100*time.Millisecond, "orphaned hold reinstated", func() bool {
		_, ok := a.LocalSpace().Rdp(reqTmpl())
		return ok
	})
	if got := a.Mobility().OrphanHolds; got != 1 {
		t.Fatalf("orphan holds = %d, want 1", got)
	}
}

// TestOrphanSweepSparesReachablePeer: suspicion must clear when a probe
// succeeds again — a blip shorter than the orphan grace reaps nothing.
func TestOrphanSweepSparesReachablePeer(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	a.orphans.SetPeriod(100 * time.Millisecond) // thirty sweeps to the 3s grace: a blip never ripens

	errc := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(), longLease())
		errc <- err
	}()
	eventually(t, "a serves b's wait", func() bool {
		return waitsLen(a) == 1
	})

	r.net.SetVisible("a", "b", false)
	advanceUntil(t, r, 100*time.Millisecond, "suspicion recorded", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.suspect) == 1
	})
	r.net.SetVisible("a", "b", true)
	advanceUntil(t, r, 100*time.Millisecond, "suspicion cleared", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.suspect) == 0
	})
	kept := waitsLen(a) == 1
	if !kept {
		t.Fatal("wait for a reachable peer was reaped")
	}
	if a.Mobility().OrphanWaits != 0 {
		t.Fatal("blip was reaped")
	}
	b.Close()
	<-errc
}

// TestRetryJitterReproducible: the per-instance source makes retry timing
// a pure function of the seed (satellite S1).
func TestRetryJitterReproducible(t *testing.T) {
	sample := func(seed uint64) []time.Duration {
		i := &Instance{cfg: Config{ContactTimeout: 250 * time.Millisecond}, tm: deriveTimers(250*time.Millisecond, 3)}
		i.rnd.Seed(seed)
		out := make([]time.Duration, 8)
		for k := range out {
			out[k] = i.retryWait(k % 3)
		}
		return out
	}
	a, b, c := sample(42), sample(42), sample(43)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at %d: %v vs %v", k, a[k], b[k])
		}
	}
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
	for k, d := range a {
		lo := 250 * time.Millisecond
		if k%3 > 0 {
			lo += 50 * time.Millisecond << ((k % 3) - 1)
		}
		if d < lo || d >= lo+50*time.Millisecond {
			t.Fatalf("retryWait(%d) = %v out of range [%v, %v)", k%3, d, lo, lo+50*time.Millisecond)
		}
	}
}

// TestDiscoverProbeObservesProber: a peer that probes us is visible by
// construction, so it must join the responder list even if its one-shot
// boot hello never arrived — otherwise the knowledge stays asymmetric
// (it keeps probing, we never learn it exists) and a blocking op here
// can never re-arm toward it.
func TestDiscoverProbeObservesProber(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]

	x, err := r.net.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetVisible("a", "x", true)
	if err := x.Send("a", &wire.Message{Type: wire.TDiscover, ID: 9, From: "x"}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "prober observed", func() bool {
		for _, p := range a.ResponderList() {
			if p == "x" {
				return true
			}
		}
		return false
	})
}
