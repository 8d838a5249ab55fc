package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// These tests cover the serve side of a blocking take (DESIGN.md §6): N
// peers parked in `in` on one template are hold-waiters, one Out wakes
// exactly one of them, and a wait that is cancelled while a hold is
// already committed to it puts the tuple back.

// TestRemoteTakersWokenOnePerOut is the master/worker shape of the
// paper's §3.2 applications: eight remote takers parked on one template,
// K outs, K distinct takers served — with no lost race behind it (nothing
// reinstated), no duplicate served (nothing dropped by dedup), and the
// other takers still parked.
func TestRemoteTakersWokenOnePerOut(t *testing.T) {
	const takers, outs = 8, 5
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	// Introduce the two before the first op: a taker that has to find a
	// by multicast is re-armed toward it when it answers, and that second
	// contact is a duplicate by design — not the kind this test counts.
	r.seedCaps("a")
	r.seedCaps("b")

	type outcome struct {
		taker int
		res   Result
		err   error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan outcome, takers)
	for k := 0; k < takers; k++ {
		go func(k int) {
			res, err := b.In(ctx, reqTmpl(), longLease())
			done <- outcome{k, res, err}
		}(k)
	}
	eventually(t, "eight waits parked at a", func() bool { return waitCount(a) == takers })

	seenTaker := make(map[int]bool)
	seenTuple := make(map[int64]bool)
	for k := int64(0); k < outs; k++ {
		if err := a.Out(req(k), hourLease()); err != nil {
			t.Fatal(err)
		}
		// One out, one taker: wait for it before the next out, so a
		// second wake-up for the same tuple would have nothing to take
		// and would show as a reinstatement or a hang.
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("taker %d: %v", o.taker, o.err)
			}
			id, _ := o.res.Tuple.IntAt(1)
			if o.res.From != "a" || id != k {
				t.Fatalf("taker %d got %+v, want req(%d) from a", o.taker, o.res, k)
			}
			if seenTaker[o.taker] || seenTuple[id] {
				t.Fatalf("taker %d / tuple %d served twice", o.taker, id)
			}
			seenTaker[o.taker], seenTuple[id] = true, true
		case <-time.After(2 * time.Second):
			t.Fatalf("out %d woke nobody", k)
		}
	}
	select {
	case o := <-done:
		t.Fatalf("taker %d returned with no tuple out: %+v %v", o.taker, o.res, o.err)
	default:
	}
	eventually(t, "every hold accepted", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.holds) == 0
	})
	if n := waitCount(a); n != takers-outs {
		t.Fatalf("%d waits parked at a after %d outs, want %d", n, outs, takers-outs)
	}
	if n := a.LocalSpace().Count(); n != 1 { // the space-info tuple
		t.Fatalf("a holds %d tuples, want only its info tuple", n)
	}
	if n := r.met.Get(trace.CtrTuplesReinstated); n != 0 {
		t.Fatalf("%d tuples reinstated: a taker was woken for a tuple it could not have", n)
	}
	if n := r.met.Get(trace.CtrDedupDrops); n != 0 {
		t.Fatalf("%d dedup drops on a lossless network", n)
	}

	cancel()
	for k := outs; k < takers; k++ {
		if o := <-done; !errors.Is(o.err, context.Canceled) {
			t.Fatalf("parked taker %d ended with %+v %v", o.taker, o.res, o.err)
		}
	}
	eventually(t, "parked waits withdrawn by the cancels", func() bool { return waitCount(a) == 0 })
}

// lateSpace is a space whose hold-waiters learn of a delivery late: the
// hold is committed by the Out as usual, but it only appears on Chan
// once Cancel has been called — the interleaving in which the serve
// goroutine picks its cancel edge while a delivery is already under way.
type lateSpace struct{ space.Space }

func (s lateSpace) WaitHold(p tuple.Template) space.HoldWaiter {
	return &lateWaiter{inner: s.Space.WaitHold(p), ch: make(chan space.Hold, 1)}
}

type lateWaiter struct {
	inner space.HoldWaiter
	once  sync.Once
	ch    chan space.Hold
}

func (w *lateWaiter) Chan() <-chan space.Hold { return w.ch }

func (w *lateWaiter) Cancel() {
	w.once.Do(func() {
		w.inner.Cancel()
		if h, ok := <-w.inner.Chan(); ok {
			w.ch <- h
		}
		close(w.ch)
	})
}

// TestCancelledServeWaitKeepsCommittedTuple drives both cancel edges of
// a served take — the requester's TCancel and the serve lease running
// out — at the instant a hold has been committed to the waiter but not
// yet seen by it. The tuple must go back into the space (at-most-once is
// trivially kept by answering nobody; no-loss is the property at stake),
// and no found reply may leave for a requester that stopped listening.
func TestCancelledServeWaitKeepsCommittedTuple(t *testing.T) {
	edges := []struct {
		name string
		ttl  time.Duration
		end  func(r *rig, x transport.Endpoint)
		// notFound: the edge owes the requester a not-found notice.
		notFound bool
	}{
		{"requester cancel", time.Hour, func(r *rig, x transport.Endpoint) {
			if err := x.Send("a", &wire.Message{Type: wire.TCancel, ID: 1, From: "x"}); err != nil {
				r.t.Fatal(err)
			}
		}, false},
		{"serve lease expiry", time.Second, func(r *rig, x transport.Endpoint) {
			r.clk.Advance(2 * time.Second)
		}, true},
	}
	for _, e := range edges {
		e := e
		t.Run(e.name, func(t *testing.T) {
			r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
				c.Space = lateSpace{store.New(store.WithClock(c.Clock), store.WithMetrics(c.Metrics))}
			})
			a := r.inst["a"]
			x, err := r.net.Attach("x")
			if err != nil {
				t.Fatal(err)
			}
			r.net.SetVisible("a", "x", true)
			if err := x.Send("a", &wire.Message{
				Type: wire.TOp, ID: 1, From: "x", Op: wire.OpIn, Template: reqTmpl(), TTL: e.ttl,
			}); err != nil {
				t.Fatal(err)
			}
			eventually(t, "wait parked", func() bool { return waitCount(a) == 1 })

			if err := a.Out(req(1), hourLease()); err != nil {
				t.Fatal(err)
			}
			if _, ok := a.LocalSpace().Rdp(reqTmpl()); ok {
				t.Fatal("the out was not committed to the parked taker")
			}
			e.end(r, x)
			eventually(t, "wait ended", func() bool { return waitCount(a) == 0 })
			if _, ok := a.LocalSpace().Rdp(reqTmpl()); !ok {
				t.Fatal("tuple lost: committed to a cancelled waiter and never put back")
			}
			if n := r.met.Get(trace.CtrTuplesReinstated); n != 1 {
				t.Fatalf("reinstated = %d, want the one committed hold", n)
			}
			a.mu.Lock()
			holds := len(a.holds)
			a.mu.Unlock()
			if holds != 0 {
				t.Fatalf("%d holds still registered for an op nobody waits on", holds)
			}
			// What the requester was told: at most a not-found.
			var replies []*wire.Message
			for drained := false; !drained; {
				select {
				case m := <-x.Recv():
					if m.Type == wire.TResult {
						replies = append(replies, m)
					}
				case <-time.After(20 * time.Millisecond):
					drained = true
				}
			}
			for _, m := range replies {
				if m.Found {
					t.Fatalf("found reply %+v sent for a cancelled wait", m)
				}
			}
			if e.notFound && len(replies) != 1 {
				t.Fatalf("%d replies on lease expiry, want one not-found", len(replies))
			}
			// The tuple is takeable again, once.
			if _, ok, _ := a.Inp(context.Background(), reqTmpl(), nil); !ok {
				t.Fatal("reinstated tuple not takeable")
			}
		})
	}
}
