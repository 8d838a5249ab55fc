package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tiamat/lease"
	"tiamat/trace"
	"tiamat/wire"
)

// These tests inject failures — message loss, requester death, lease
// revocation mid-operation — and verify the protocol's safety property:
// a tuple is never lost; at worst it is temporarily held and then
// reinstated by the hold-grace timer.

func TestLostResultReinstatedByHoldGrace(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}

	// All traffic from now on is lost: b's take reaches nobody — but we
	// want the TOp to ARRIVE and the TResult to be LOST. Easiest precise
	// injection: let the op go through normally but drop the accept, by
	// cutting the network right after a holds the tuple. Instead we cut
	// the network before the op: b finds nothing, a keeps the tuple.
	r.net.SetVisible("a", "b", false)
	_, ok, err := b.Inp(context.Background(), reqTmpl(),
		lease.Flexible(lease.Terms{Duration: time.Second, MaxRemotes: 4}))
	if err != nil || ok {
		t.Fatalf("partitioned take: ok=%v err=%v", ok, err)
	}
	if a.LocalSpace().Count() != 2 {
		t.Fatal("tuple lost without any exchange")
	}

	// Now the nasty case: the op succeeds at a (tuple held), but the
	// requester dies before sending accept/release. The hold-grace timer
	// must reinstate the tuple.
	r.net.ConnectAll()
	hold, ok := a.LocalSpace().Hold(reqTmpl())
	if !ok {
		t.Fatal("setup: hold failed")
	}
	holdID := a.registerHold(hold, time.Second, waitKey{from: "b", id: 999})
	_ = holdID
	if a.LocalSpace().Count() != 1 {
		t.Fatal("held tuple still visible")
	}
	r.clk.Advance(time.Second + a.tm.holdGrace + time.Millisecond) // ttl + grace
	if a.LocalSpace().Count() != 2 {
		t.Fatal("hold grace did not reinstate the tuple")
	}
	if _, ok, _ := a.Inp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("reinstated tuple not takeable")
	}
}

func TestAcceptSettlesHoldBeforeGrace(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.Inp(context.Background(), reqTmpl(), nil); err != nil || !ok {
		t.Fatalf("take: %v %v", ok, err)
	}
	// Long after every grace period, the tuple must NOT reappear: the
	// accept finalised the removal.
	r.clk.Advance(time.Hour)
	eventually(t, "tuple stays gone", func() bool {
		return a.LocalSpace().Count() == 1 && b.LocalSpace().Count() == 1
	})
}

func TestTotalLossMakesOpsExpireNotHang(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	r.net.SetLoss(1.0)
	done := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: 2 * time.Second, MaxRemotes: 4}))
		done <- err
	}()
	eventually(t, "op registered", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.ops) > 0
	})
	r.clk.Advance(3 * time.Second)
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoMatch) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op hung under total loss")
	}
	// The tuple is untouched at a.
	r.net.SetLoss(0)
	if _, ok, _ := a.Rdp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("tuple lost under total loss")
	}
}

func TestRevocationMidBlockingOpReturnsNothing(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	done := make(chan error, 1)
	go func() {
		_, err := a.In(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: time.Hour, MaxRemotes: 4}))
		done <- err
	}()
	eventually(t, "lease active", func() bool {
		return a.LeaseManager().Stats().Active > 0
	})
	if n := a.LeaseManager().Revoke(1); n != 1 {
		t.Fatalf("revoked %d", n)
	}
	select {
	case err := <-done:
		// Revocation ends the lease; the blocking op returns no match.
		if !errors.Is(err, ErrNoMatch) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking op survived revocation")
	}
}

func TestChurnDuringTakesNeverDuplicatesOrLoses(t *testing.T) {
	// Safety under churn: nodes flicker while a consumer drains tuples;
	// every tuple is taken at most once, and none disappears while its
	// producer stays reachable at take time.
	r := newRig(t, []wire.Addr{"p0", "p1", "p2", "consumer"}, nil)
	r.net.ConnectAll()
	producers := []wire.Addr{"p0", "p1", "p2"}
	const perProducer = 10
	for pi, p := range producers {
		for k := 0; k < perProducer; k++ {
			id := int64(pi*100 + k)
			if err := r.inst[p].Out(req(id), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
				t.Fatal(err)
			}
		}
	}
	consumer := r.inst["consumer"]
	seen := map[int64]bool{}
	flip := 0
	deadline := time.Now().Add(15 * time.Second)
	for len(seen) < len(producers)*perProducer && time.Now().Before(deadline) {
		// Flicker one producer per round, but keep it reachable for the
		// next attempt so takes can complete eventually.
		victim := producers[flip%len(producers)]
		flip++
		r.net.SetVisible(victim, "consumer", false)
		r.net.SetVisible(victim, "consumer", true)
		res, ok, err := consumer.Inp(context.Background(), reqTmpl(),
			lease.Flexible(lease.Terms{Duration: 2 * time.Second, MaxRemotes: 16}))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // transient misses are fine under churn
		}
		v, _ := res.Tuple.IntAt(1)
		if seen[v] {
			t.Fatalf("tuple %d taken twice", v)
		}
		seen[v] = true
	}
	if len(seen) != len(producers)*perProducer {
		t.Fatalf("collected %d/%d tuples", len(seen), len(producers)*perProducer)
	}
}

func TestDuplicatedAcceptAndLateReleaseAreIdempotent(t *testing.T) {
	// At-least-once delivery means a responder can see the same TAccept
	// twice, and a TRelease duplicate can trail in after the accept. The
	// hold must settle exactly once: the tuple stays removed.
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	hold, ok := a.LocalSpace().Hold(reqTmpl())
	if !ok {
		t.Fatal("setup: hold failed")
	}
	holdID := a.registerHold(hold, time.Second, waitKey{from: "b", id: 9})

	accept := &wire.Message{Type: wire.TAccept, ID: 50, From: "b", HoldID: holdID}
	a.dispatch(accept)
	a.dispatch(accept) // duplicate: hold already settled, just re-acked
	a.dispatch(&wire.Message{Type: wire.TRelease, ID: 9, From: "b", HoldID: holdID})
	if n := a.LocalSpace().Count(); n != 1 {
		t.Fatalf("space count = %d after accept + dup + late release, want 1", n)
	}
	// Even long after every grace period the tuple must not reappear.
	r.clk.Advance(time.Hour)
	if n := a.LocalSpace().Count(); n != 1 {
		t.Fatalf("tuple reinstated after accepted hold: count = %d", n)
	}
}

func TestDuplicatedReleaseReinstatesOnce(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	hold, ok := a.LocalSpace().Hold(reqTmpl())
	if !ok {
		t.Fatal("setup: hold failed")
	}
	holdID := a.registerHold(hold, time.Second, waitKey{from: "b", id: 10})

	release := &wire.Message{Type: wire.TRelease, ID: 10, From: "b", HoldID: holdID}
	a.dispatch(release)
	a.dispatch(release) // duplicate: nothing left to reinstate
	if n := a.LocalSpace().Count(); n != 2 {
		t.Fatalf("space count = %d after release + dup, want 2", n)
	}
	// A late duplicate accept for the already-released hold is a no-op:
	// the tuple stays in the space.
	a.dispatch(&wire.Message{Type: wire.TAccept, ID: 50, From: "b", HoldID: holdID})
	if n := a.LocalSpace().Count(); n != 2 {
		t.Fatalf("late accept on released hold removed the tuple: count = %d", n)
	}
}

func TestDuplicatedTakeRequestServedFromCache(t *testing.T) {
	// A duplicated nonblocking take frame must not remove a second tuple:
	// the responder replays the cached reply instead of re-executing.
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	for id := int64(1); id <= 2; id++ {
		if err := a.Out(req(id), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
			t.Fatal(err)
		}
	}
	before := r.met.Get(trace.CtrDedupDrops)
	// The requester address is deliberately unattached: the serve path
	// is exercised white-box here, and a live peer instance would react
	// to the found-reply (releasing the hold) and race the assertions.
	op := &wire.Message{Type: wire.TOp, ID: 77, From: "w", Op: wire.OpInp, TTL: time.Second, Template: reqTmpl()}
	a.dispatch(op)
	quiesceServe(t, a)
	a.dispatch(op) // duplicate of the same request
	quiesceServe(t, a)
	if n := a.LocalSpace().Count(); n != 2 {
		t.Fatalf("space count = %d after duplicated take, want 2 (one held)", n)
	}
	a.mu.Lock()
	holds := len(a.holds)
	a.mu.Unlock()
	if holds != 1 {
		t.Fatalf("pending holds = %d, want 1", holds)
	}
	if got := r.met.Get(trace.CtrDedupDrops); got == before {
		t.Fatal("duplicate request not counted as dedup drop")
	}
}

func TestReinstatedHoldInvalidatesCachedReply(t *testing.T) {
	// If the requester never accepts (its reply was lost and its op
	// expired), the grace timer reinstates the tuple AND must forget the
	// cached found-reply: a later retransmission of the same request has
	// to take the tuple afresh rather than replay a dead hold.
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	// Unattached requester: see TestDuplicatedTakeRequestServedFromCache.
	op := &wire.Message{Type: wire.TOp, ID: 88, From: "w", Op: wire.OpInp, TTL: time.Second, Template: reqTmpl()}
	a.dispatch(op)
	quiesceServe(t, a)
	if n := a.LocalSpace().Count(); n != 1 {
		t.Fatalf("take did not hold: count = %d", n)
	}
	r.clk.Advance(time.Second + a.tm.holdGrace + time.Millisecond) // reinstate
	if n := a.LocalSpace().Count(); n != 2 {
		t.Fatalf("grace did not reinstate: count = %d", n)
	}
	// Retransmission of the same frame: must create a fresh hold, not
	// replay the invalidated reply naming the dead one.
	a.dispatch(op)
	quiesceServe(t, a)
	if n := a.LocalSpace().Count(); n != 1 {
		t.Fatalf("retransmission after reinstatement: count = %d, want 1", n)
	}
	a.mu.Lock()
	holds := len(a.holds)
	a.mu.Unlock()
	if holds != 1 {
		t.Fatalf("pending holds = %d, want a fresh hold", holds)
	}
}
