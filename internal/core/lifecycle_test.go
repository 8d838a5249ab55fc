package core

// Node lifecycle coverage: graceful shutdown (drain + goodbye), the
// effect of a goodbye on peers (responder-list departure, served-wait
// settlement, hold reinstatement), and restart/rejoin — a persistent
// node that shuts down, comes back at the same address, and is
// contactable again within one discovery interval, serving its replayed
// tuples.

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space/persist"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

func TestShutdownGoodbyeDepartsPeerLists(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Rdp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("setup read failed")
	}
	if len(b.ResponderList()) != 1 {
		t.Fatalf("setup: b's list = %v", b.ResponderList())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	eventually(t, "b drops the departed node", func() bool {
		return len(b.ResponderList()) == 0
	})
	if r.met.Get(trace.CtrGoodbyes) == 0 {
		t.Fatal("goodbye not counted")
	}
	// Shutdown closed the instance: local API is off.
	if err := a.Out(req(2), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Out after shutdown = %v, want ErrClosed", err)
	}
	// Idempotent: a second Shutdown finds the teardown done.
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatalf("repeat shutdown: %v", err)
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	a.draining.Store(true)
	if err := a.Out(req(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Out while draining = %v, want ErrClosed", err)
	}
	if _, _, err := a.Rdp(context.Background(), reqTmpl(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rdp while draining = %v, want ErrClosed", err)
	}
}

func TestShutdownSettlesServedWaits(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]

	// b's blocking take is served by a waiter registered at a.
	done := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(), nil)
		done <- err
	}()
	eventually(t, "a registers a served wait", func() bool {
		return waitsLen(a) > 0
	})

	// Shutdown must not wait for b's lease to run out: the served wait is
	// settled with a not-found and the drain finishes immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown blocked on a served wait: %v", err)
	}
	// b's operation still runs under its own lease; let it expire.
	r.clk.Advance(6 * time.Second)
	if err := <-done; !errors.Is(err, ErrNoMatch) {
		t.Fatalf("b's blocked op = %v, want ErrNoMatch", err)
	}
}

// TestShutdownDrainEndsWithLastHold: a drain waits out a peer's pending
// hold and ends the moment the peer accepts it — the settlement wakes
// Shutdown; the hold's grace, on a clock nobody advances, never would.
func TestShutdownDrainEndsWithLastHold(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	ghost, err := r.net.Attach("ghost")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("ghost")
	a := r.inst["a"]
	if err := a.Out(req(9), nil); err != nil {
		t.Fatal(err)
	}
	if err := ghost.Send("a", opFrame("ghost", 1, wire.OpInp, time.Minute)); err != nil {
		t.Fatal(err)
	}
	res := <-ghost.Recv()
	if res.Type != wire.TResult || !res.Found || res.HoldID == 0 {
		t.Fatalf("hold reply = %+v", res)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- a.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a hold pending", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := ghost.Send("a", &wire.Message{Type: wire.TAccept, ID: 2, From: "ghost", HoldID: res.HoldID}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown still draining after the last hold settled")
	}
}

// TestShutdownDrainRefusesServeFrames: while Shutdown drains (a peer's
// unaccepted hold keeps it open), new work from a peer gets the
// definitive refusal at the receive loop's drain gate — a plain not-found
// for an op, a "draining" refusal for an out or an eval — and a discover
// probe gets no announce, so the peer fails over to a node that stays.
func TestShutdownDrainRefusesServeFrames(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	ghost, err := r.net.Attach("ghost")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("ghost")
	a := r.inst["a"]
	a.RegisterEval("id", func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) { return args, nil })
	if err := a.Out(req(9), nil); err != nil {
		t.Fatal(err)
	}
	box := &inbox{ep: ghost}
	send := func(m *wire.Message) {
		t.Helper()
		m.From = "ghost"
		if err := ghost.Send("a", m); err != nil {
			t.Fatal(err)
		}
	}
	send(opFrame("ghost", 1, wire.OpInp, time.Minute))
	eventually(t, "hold granted", func() bool { return box.find(1) != nil })
	hold := box.find(1)
	if !hold.Found || hold.HoldID == 0 {
		t.Fatalf("hold reply = %+v", hold)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- a.Shutdown(ctx)
	}()
	eventually(t, "a drains", a.draining.Load)

	send(&wire.Message{Type: wire.TDiscover, ID: 2})
	send(opFrame("ghost", 3, wire.OpRdp, time.Minute))
	send(&wire.Message{Type: wire.TOut, ID: 4, TTL: time.Minute, Tuple: req(4)})
	send(&wire.Message{Type: wire.TEval, ID: 5, TTL: time.Minute, Func: "id", Tuple: req(5)})
	eventually(t, "each frame refused", func() bool { return box.find(5) != nil })
	if m := box.find(3); m == nil || m.Type != wire.TResult || m.Found || m.Busy {
		t.Fatalf("op while draining answered %+v, want a plain not-found", m)
	}
	for _, id := range []uint64{4, 5} {
		if m := box.find(id); m == nil || m.Type != wire.TAck || m.OK || m.Err != "draining" {
			t.Fatalf("frame %d while draining answered %+v, want a draining refusal", id, m)
		}
	}
	// The loop serves frames in order: the discover, handled before the
	// op's reply was sent, would have been answered by now.
	if ms := box.ofType(wire.TAnnounce); len(ms) != 0 {
		t.Fatalf("a draining node announced itself: %+v", ms)
	}
	if a.LocalSpace().Count() != 1 { // the space-info tuple; req(9) is held
		t.Fatalf("space holds %d tuples while draining, want 1", a.LocalSpace().Count())
	}

	send(&wire.Message{Type: wire.TAccept, ID: 6, HoldID: hold.HoldID})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown still draining after the last hold settled")
	}
}

// TestOutRacingCloseReturnsErrClosed: an Out whose own node closes under
// it returns ErrClosed, whichever part of the node noticed first — the
// lease manager, refusing the grant the Out was negotiating, or the
// space, refusing the write.
func TestOutRacingCloseReturnsErrClosed(t *testing.T) {
	t.Run("lease manager", func(t *testing.T) {
		r := newRig(t, []wire.Addr{"a"}, nil)
		a := r.inst["a"]
		closing := closeOnConsider{Requester: lease.Flexible(defaultTerms), close: func() { a.Close() }}
		if err := a.Out(req(1), closing); !errors.Is(err, ErrClosed) {
			t.Fatalf("Out raced by Close = %v, want ErrClosed", err)
		}
	})
	t.Run("space", func(t *testing.T) {
		g := newGatedRig(t, nil)
		g.sp.beforeOut = func() { g.a.Close() }
		if err := g.a.Out(req(1), nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Out raced by Close = %v, want ErrClosed", err)
		}
	})
}

// closeOnConsider runs close while the lease manager waits for the
// requester's answer, between its two checks of whether it is closed.
type closeOnConsider struct {
	lease.Requester
	close func()
}

func (c closeOnConsider) Consider(offer lease.Terms) bool {
	c.close()
	return c.Requester.Consider(offer)
}

func TestGoodbyeReinstatesHeldTuples(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	ghost, err := r.net.Attach("ghost")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("ghost")
	a := r.inst["a"]
	if err := a.Out(req(9), nil); err != nil {
		t.Fatal(err)
	}

	// The ghost peer takes the tuple tentatively…
	if err := ghost.Send("a", &wire.Message{
		Type: wire.TOp, ID: 1, From: "ghost", Op: wire.OpInp,
		TTL: time.Second, Template: reqTmpl(),
	}); err != nil {
		t.Fatal(err)
	}
	res := <-ghost.Recv()
	if res.Type != wire.TResult || !res.Found || res.HoldID == 0 {
		t.Fatalf("hold reply = %+v", res)
	}
	if _, ok := a.LocalSpace().Rdp(reqTmpl()); ok {
		t.Fatal("held tuple still visible")
	}

	// …then departs without accepting: the accept is never coming, so the
	// goodbye reinstates the hold at once instead of waiting out the
	// grace timer.
	if err := ghost.Send("a", &wire.Message{Type: wire.TGoodbye, ID: 2, From: "ghost"}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "hold reinstated on goodbye", func() bool {
		_, ok := a.LocalSpace().Rdp(reqTmpl())
		return ok
	})
}

// TestRestartRejoinServesWithinDiscoveryInterval is the acceptance walk:
// a persistent node shuts down gracefully, restarts at the same address,
// replays its log, and — thanks to the boot-time hello announce — is
// back in its peer's responder list without the peer doing any discovery
// work, serving its replayed tuples.
func TestRestartRejoinServesWithinDiscoveryInterval(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "a.log")
	net := memnet.New()
	defer net.Close()

	bootA := func() *Instance {
		ep, err := net.Attach("a")
		if err != nil {
			t.Fatal(err)
		}
		net.ConnectAll() // restore visibility before the hello multicast
		sp, err := persist.Open(logPath, store.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(Config{Endpoint: ep, Space: sp, Persistent: true})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	epB, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Endpoint: epB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a := bootA()
	if err := a.Out(req(7), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Rdp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("pre-restart read failed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	eventually(t, "b drops a after goodbye", func() bool {
		return len(b.ResponderList()) == 0
	})

	// Restart. The hello announce alone must put a back into b's list —
	// b runs no discovery here.
	a2 := bootA()
	defer a2.Close()
	eventually(t, "b relearns a from the hello announce", func() bool {
		list := b.ResponderList()
		return len(list) == 1 && list[0] == "a"
	})
	// And the replayed tuple is served from the restarted node.
	res, ok, err := b.Rdp(context.Background(), reqTmpl(), nil)
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("post-restart read = %+v %v %v", res, ok, err)
	}
	if v, _ := res.Tuple.IntAt(1); v != 7 {
		t.Fatalf("replayed tuple = %v", res.Tuple)
	}
}

// TestRestartRejoinNotHandedATakenTuple: a requester restarted at the same
// address numbers its ops from the start again. The responder that served
// its previous life must serve the new ops afresh, not from what it cached
// for the old ones under the same IDs: an OutAt's cached ack would
// acknowledge a tuple never stored, and a take's cached reply would hand
// over a tuple already taken — a second take of it.
func TestRestartRejoinNotHandedATakenTuple(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	note := tuple.T(tuple.String("note"), tuple.Int(1))
	noteTmpl := tuple.Tmpl(tuple.String("note"), tuple.Int(1))
	if err := a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	// Both lives run the same ops in the same order, so their IDs match.
	life := func(b *Instance) (bool, Result, bool) {
		b.list.Observe("a")
		if err := b.OutAt("a", note, opLease(time.Minute)); err != nil {
			t.Fatal(err)
		}
		_, stored := a.LocalSpace().Inp(noteTmpl)
		res, took, _ := b.Inp(context.Background(), reqTmpl(), opLease(time.Minute))
		return stored, res, took
	}
	if stored, _, took := life(r.inst["b"]); !stored || !took {
		t.Fatalf("setup: first life stored %v, took %v", stored, took)
	}
	r.inst["b"].Close()
	ep, err := r.net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	b, err := New(Config{Endpoint: ep, Clock: r.clk, Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	r.inst["b"] = b
	stored, res, took := life(b)
	if !stored {
		t.Error("the restarted requester's OutAt was acknowledged but not stored")
	}
	if took {
		t.Errorf("the restarted requester took %v again, from %s", res.Tuple, res.From)
	}
}
