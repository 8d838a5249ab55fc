package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tiamat/lease"
	"tiamat/tuple"
	"tiamat/wire"
)

func TestOutServesWaitingTakerWithoutStoring(t *testing.T) {
	// The store fast-path: a tuple consumed immediately by a blocked
	// taker is never stored, and its out-lease is released at once.
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	done := make(chan error, 1)
	go func() {
		_, err := a.In(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: time.Hour, MaxRemotes: 1}))
		done <- err
	}()
	eventually(t, "taker blocked", func() bool {
		return a.LeaseManager().Stats().Active > 0
	})
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("taker never served")
	}
	if a.LocalSpace().Count() != 1 { // info tuple only
		t.Fatalf("count = %d: tuple was stored despite direct handoff", a.LocalSpace().Count())
	}
	eventually(t, "out lease released", func() bool {
		return a.LeaseManager().Stats().Active == 0
	})
}

func TestEvalWorkerPoolExhaustion(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	a.LeaseManager().RegisterResource(lease.ResThreads, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	a.RegisterEval("slow", func(ctx context.Context, _ tuple.Tuple) (tuple.Tuple, error) {
		close(started)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return tuple.T(tuple.String("done")), nil
	})
	if err := a.Eval("slow", tuple.T(), nil); err != nil {
		t.Fatal(err)
	}
	<-started
	// The single worker is busy: the next eval must be refused through
	// the lease manager's thread factory (paper §3.1.1).
	err := a.Eval("slow", tuple.T(), nil)
	if !errors.Is(err, lease.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
	close(block)
	eventually(t, "result appears", func() bool {
		_, ok := a.LocalSpace().Rdp(tuple.Tmpl(tuple.String("done")))
		return ok
	})
	// The worker slot is free again.
	eventually(t, "pool released", func() bool {
		used, _ := a.LeaseManager().InUse(lease.ResThreads)
		return used == 0
	})
}

func TestRelayToSelfDispatchesLocally(t *testing.T) {
	// A TRelay whose target is the relay node itself must be handled
	// in-place, not forwarded.
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	inner := wire.Encode(&wire.Message{
		Type: wire.TOut, ID: 99, From: "a",
		TTL: time.Minute, Tuple: req(5),
	})
	if err := a.ep.Send("b", &wire.Message{
		Type: wire.TRelay, ID: 1, From: "a", Target: "b", Payload: inner,
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "relayed out applied", func() bool {
		_, ok := b.LocalSpace().Rdp(reqTmpl())
		return ok
	})
	_ = b
}

func TestRelayCorruptPayloadIgnored(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	if err := a.ep.Send("b", &wire.Message{
		Type: wire.TRelay, ID: 1, From: "a", Target: "b", Payload: []byte{1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert except that nothing crashes and b still works.
	if err := r.inst["b"].Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirectOpToInvisibleNodeFailsFast(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil) // not connected
	a := r.inst["a"]
	if _, _, err := a.RdpAt(context.Background(), "b", reqTmpl(), nil); err == nil {
		t.Fatal("direct op to invisible node succeeded")
	}
	if _, err := a.RdAt(context.Background(), "b", reqTmpl(), nil); err == nil {
		t.Fatal("direct rd to invisible node succeeded")
	}
}

// TestSelfAddressedTakeHonoursContext: a blocking direct op on this
// instance's own space is the local phase plus a walk with no audience,
// and like every walk it ends when its context is cancelled, not when its
// lease does.
func TestSelfAddressedTakeHonoursContext(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	for _, op := range []struct {
		name string
		run  func(context.Context) (Result, error)
	}{
		{"RdAt", func(ctx context.Context) (Result, error) { return a.RdAt(ctx, "a", reqTmpl(), opLease(time.Minute)) }},
		{"InAt", func(ctx context.Context) (Result, error) { return a.InAt(ctx, "a", reqTmpl(), opLease(time.Minute)) }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := op.run(ctx)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s on its own space after cancel = %v, want context.Canceled", op.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s on its own space ignored its cancelled context", op.name)
		}
	}
}

func TestSpacesPartialOnContextCancel(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b", "c"}, nil)
	// Only b is visible; c is attached but unreachable, so the count
	// from the multicast is 1 and the round completes exactly.
	r.net.SetVisible("a", "b", true)
	infos, err := r.inst["a"].Spaces(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("infos = %v", infos)
	}
	// With zero visibility, Spaces returns just the local space.
	r.net.Isolate("a")
	infos, err = r.inst["a"].Spaces(context.Background())
	if err != nil || len(infos) != 1 || infos[0].Addr != "a" {
		t.Fatalf("isolated Spaces = %v %v", infos, err)
	}
}

func TestDuplicateBlockingOpReplacesWaiter(t *testing.T) {
	// Rediscovery re-sends the same (from, id) TOp; the responder must
	// replace the old waiter, not leak one per round.
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	op := &wire.Message{Type: wire.TOp, ID: 7, From: "b", Op: wire.OpIn,
		TTL: time.Hour, Template: reqTmpl()}
	for k := 0; k < 5; k++ {
		if err := r.inst["b"].ep.Send("a", op); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "one waiter registered", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.waits) == 1
	})
	// Cancel clears it.
	if err := r.inst["b"].ep.Send("a", &wire.Message{Type: wire.TCancel, ID: 7, From: "b"}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "waiter cleared", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.waits) == 0
	})
}

func TestRemoteRdWithMultipleCandidatesReadsOne(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b", "c"}, nil)
	r.net.ConnectAll()
	if err := r.inst["a"].Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.inst["b"].Out(req(2), nil); err != nil {
		t.Fatal(err)
	}
	res, err := r.inst["c"].Rd(context.Background(), reqTmpl(),
		lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if res.From != "a" && res.From != "b" {
		t.Fatalf("res.From = %s", res.From)
	}
	// rd copies: both tuples still exist.
	if r.inst["a"].LocalSpace().Count()+r.inst["b"].LocalSpace().Count() != 4 {
		t.Fatal("rd consumed a tuple")
	}
}
