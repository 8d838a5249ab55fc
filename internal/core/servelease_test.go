package core

import (
	"testing"
	"time"

	"tiamat/lease"
	"tiamat/wire"
)

// These tests cover how a responder leases what it serves (paper §3.1.1,
// DESIGN.md §9): every served op is admitted through its lease manager,
// but only a parked wait, which outlives the frame that asked for it, is
// granted a lease, and that lease lives in the wait.

// TestImmediateServeMintsNoLease: a served rdp hit, replica read, inp hit,
// miss and failover take, each answered within its frame, leave the
// responder's granted and active lease counts where they were; a parked
// in grants exactly one lease, the wait's own.
func TestImmediateServeMintsNoLease(t *testing.T) {
	r := replRig(t, nil, "a", "b")
	a, b := r.inst["a"], r.inst["b"]
	x, err := r.net.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetVisible("b", "x", true)
	xin := &inbox{ep: x}
	if err := b.Out(req(1), outLease()); err != nil {
		t.Fatal(err)
	}
	if err := a.Out(req(2), outLease()); err != nil {
		t.Fatal(err)
	}
	if b.ReplicaCopies(reqTmpl()) != 1 {
		t.Fatal("a's tuple not replicated to b")
	}
	id := uint64(0)
	// serve sends b one op as x and returns b's reply, checking that the
	// serve moved neither b's granted nor its active lease count.
	serve := func(what string, op wire.OpCode, failover bool) *wire.Message {
		t.Helper()
		id++
		before := b.LeaseManager().Stats()
		if err := x.Send("b", &wire.Message{
			Type: wire.TOp, ID: id, From: "x", Op: op, Template: reqTmpl(), TTL: time.Minute, Failover: failover,
		}); err != nil {
			t.Fatal(err)
		}
		eventually(t, what+" answered", func() bool { return xin.find(id) != nil })
		after := b.LeaseManager().Stats()
		if after.Granted != before.Granted || after.Active != before.Active {
			t.Fatalf("%s: granted %d → %d, active %d → %d; an immediate serve mints no lease",
				what, before.Granted, after.Granted, before.Active, after.Active)
		}
		return xin.find(id)
	}
	if res := serve("rdp hit", wire.OpRdp, false); !res.Found || !res.Tuple.Equal(req(1)) {
		t.Fatalf("rdp hit: %+v", res)
	}
	res := serve("inp hit", wire.OpInp, false)
	if !res.Found || !res.Tuple.Equal(req(1)) || res.HoldID == 0 {
		t.Fatalf("inp hit: %+v", res)
	}
	if err := x.Send("b", &wire.Message{Type: wire.TAccept, ID: 100, From: "x", HoldID: res.HoldID}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "accept acknowledged", func() bool { return xin.find(100) != nil })
	if res := serve("replica read", wire.OpRdp, false); !res.Found || !res.Tuple.Equal(req(2)) {
		t.Fatalf("replica read: %+v", res)
	}
	if res := serve("inp miss", wire.OpInp, false); res.Found {
		t.Fatalf("inp miss: %+v", res)
	}

	a.Close()
	// The first failover take arms b's grace and finds nothing; after it
	// the copy is surrendered.
	if res := serve("failover miss", wire.OpInp, true); res.Found {
		t.Fatalf("failover take inside the grace: %+v", res)
	}
	r.clk.Advance(300 * time.Millisecond)
	if res := serve("failover take", wire.OpInp, true); !res.Found || !res.Tuple.Equal(req(2)) {
		t.Fatalf("failover take: %+v", res)
	}

	before := b.LeaseManager().Stats()
	if err := x.Send("b", &wire.Message{
		Type: wire.TOp, ID: 200, From: "x", Op: wire.OpIn, Template: reqTmpl(), TTL: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "in parked", func() bool { return waitCount(b) == 1 })
	after := b.LeaseManager().Stats()
	if after.Granted != before.Granted+1 || after.Active != before.Active+1 {
		t.Fatalf("parked in: granted %d → %d, active %d → %d; want one lease more",
			before.Granted, after.Granted, before.Active, after.Active)
	}
	b.mu.Lock()
	rw := b.requests[waitKey{from: "x", id: 200}].wait
	b.mu.Unlock()
	if rw == nil || rw.lse.State() != lease.StateActive || rw.lse.Op() != lease.OpIn {
		t.Fatal("the parked wait does not carry its active serve lease")
	}
}

// TestFullResponderStillAnswersProbes: a responder whose lease manager is
// at MaxActive answers a probe not-found at once, so the requester moves
// on. The governor reads full as saturated and sheds it busy; a probe
// that got past the governor (pressure is read before admission) is
// refused by the lease manager, which counts it.
func TestFullResponderStillAnswersProbes(t *testing.T) {
	g := newGatedRig(t, func(c *Config) {
		c.Leases = lease.DefaultCapacity()
		c.Leases.MaxActive = 1
	})
	if err := g.a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	s := g.a.LeaseManager().Stats()
	if s.Active != 1 {
		t.Fatalf("%d leases active, want the out's alone", s.Active)
	}
	for k, op := range []wire.OpCode{wire.OpRdp, wire.OpInp} {
		g.ask(uint64(k+1), op, time.Minute)
		if res := g.results(1)[0]; res.Found || res.ID != uint64(k+1) {
			t.Fatalf("%v at MaxActive: %+v, want a not-found", op, res)
		}
		id := uint64(k + 10)
		g.a.handleOp(&wire.Message{Type: wire.TOp, ID: id, From: "x", Op: op, Template: reqTmpl(), TTL: time.Minute}, g.a.clk.Now())
		if res := g.results(1)[0]; res.Found || res.Busy || res.ID != id {
			t.Fatalf("%v refused by the lease manager: %+v, want a plain not-found", op, res)
		}
	}
	if n := g.a.LeaseManager().Stats().Refused - s.Refused; n != 2 {
		t.Fatalf("%d refusals counted, want 2", n)
	}
	if !g.resident() {
		t.Fatal("a refused probe took the tuple")
	}
}

// TestServeLeaseLivesInItsWait: a parked wait's serve lease is the wait's
// own field, and whichever way that lease ends — revoked, expired or
// cancelled — it ends the wait, which answers the one not-found it owes.
func TestServeLeaseLivesInItsWait(t *testing.T) {
	edges := []struct {
		name string
		end  func(g *gatedRig, l *lease.Lease)
	}{
		{"revoked", func(g *gatedRig, l *lease.Lease) {
			if n := g.a.mgr.Revoke(1); n != 1 {
				g.t.Fatalf("revoked %d leases", n)
			}
		}},
		{"expired", func(g *gatedRig, l *lease.Lease) { g.clk.Advance(time.Minute + time.Second) }},
		{"cancelled", func(g *gatedRig, l *lease.Lease) { l.Cancel() }},
	}
	for _, e := range edges {
		e := e
		t.Run(e.name, func(t *testing.T) {
			g := newGatedRig(t, nil)
			g.ask(1, wire.OpIn, time.Minute)
			eventually(t, "wait parked", func() bool { return waitCount(g.a) == 1 })
			g.a.mu.Lock()
			rw := g.a.requests[waitKey{from: "x", id: 1}].wait
			g.a.mu.Unlock()
			active := g.a.mgr.ActiveLeases()
			if rw == nil || len(active) != 1 || active[0] != &rw.lse {
				t.Fatalf("active leases %v: want the parked wait's own", active)
			}
			e.end(g, &rw.lse)
			g.settledClean(e.name)
			if res := g.results(1)[0]; res.Found || res.Busy || res.ID != 1 {
				t.Fatalf("reply %+v, want a plain not-found", res)
			}
		})
	}
}
