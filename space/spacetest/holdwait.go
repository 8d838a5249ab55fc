// Package spacetest holds the contract tests every space.Space
// implementation runs: one table, so the optimised store, the naive
// oracle and the durable wrapper cannot drift apart on what a
// hold-delivering waiter promises.
package spacetest

import (
	"testing"
	"time"

	"tiamat/space"
	"tiamat/tuple"
)

func job(v int64) tuple.Tuple { return tuple.T(tuple.String("job"), tuple.Int(v)) }
func jobTmpl() tuple.Template { return tuple.Tmpl(tuple.String("job"), tuple.FormalInt()) }
func anyTmpl() tuple.Template { return tuple.Tmpl(tuple.Any(), tuple.FormalInt()) }

// settleTimeout bounds every wait for a delivery: a wrapper may forward
// holds from a goroutine of its own, so "delivered" is not "delivered by
// the time Out returns".
const settleTimeout = 2 * time.Second

func out(t *testing.T, s space.Space, tp tuple.Tuple) uint64 {
	t.Helper()
	id, err := s.Out(tp, time.Time{})
	if err != nil {
		t.Fatalf("Out(%v): %v", tp, err)
	}
	return id
}

// recv waits for w's one hold.
func recv(t *testing.T, w space.HoldWaiter, what string) space.Hold {
	t.Helper()
	select {
	case h, ok := <-w.Chan():
		if !ok {
			t.Fatalf("%s: channel closed without a hold", what)
		}
		return h
	case <-time.After(settleTimeout):
		t.Fatalf("%s: no hold delivered", what)
	}
	return nil
}

// closedEmpty waits for w's channel to close without a value.
func closedEmpty(t *testing.T, w space.HoldWaiter, what string) {
	t.Helper()
	select {
	case h, ok := <-w.Chan():
		if ok {
			t.Fatalf("%s: delivered %v, want a closed channel", what, h.Tuple())
		}
	case <-time.After(settleTimeout):
		t.Fatalf("%s: channel still open", what)
	}
}

// parked fails if w has been settled either way.
func parked(t *testing.T, w space.HoldWaiter, what string) {
	t.Helper()
	select {
	case h, ok := <-w.Chan():
		if ok {
			t.Fatalf("%s: woken with %v, want it still parked", what, h.Tuple())
		}
		t.Fatalf("%s: channel closed, want it still parked", what)
	default:
	}
}

func count(t *testing.T, s space.Space, want int, what string) {
	t.Helper()
	if got := s.Count(); got != want {
		t.Fatalf("%s: Count() = %d, want %d", what, got, want)
	}
}

// HoldWaiters runs the WaitHold contract against spaces made by open,
// which must return an empty space each time; the table closes it.
func HoldWaiters(t *testing.T, open func(t *testing.T) space.Space) {
	cases := []struct {
		name string
		run  func(t *testing.T, s space.Space)
	}{
		{"one out wakes the oldest of eight", oldestOfEight},
		{"a parked in outranks parked takers", inOutranksTakers},
		{"a release goes to the next taker", releaseFeedsNext},
		{"a resident match is held at once", immediateHit},
		{"cancel before the out leaves the tuple", cancelThenOut},
		{"a committed hold survives cancel", cancelAfterCommit},
		{"formal-lead templates take the same path", formalLead},
		{"out returns an id for a hold, none for an in", outIDs},
		{"close ends parked takers", closeEnds},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			c.run(t, s)
		})
	}
}

// copyOf waits for a reader's copy of want.
func copyOf(t *testing.T, w space.Waiter, want tuple.Tuple, what string) {
	t.Helper()
	select {
	case got, ok := <-w.Chan():
		if !ok || !got.Equal(want) {
			t.Fatalf("%s got %v %v, want %v", what, got, ok, want)
		}
	case <-time.After(settleTimeout):
		t.Fatalf("%s never got its copy", what)
	}
}

func oldestOfEight(t *testing.T, s space.Space) {
	// Every parked reader is owed a copy, wherever it stands in line.
	early := s.Wait(jobTmpl(), false)
	ws := make([]space.HoldWaiter, 8)
	for k := range ws {
		ws[k] = s.WaitHold(jobTmpl())
	}
	late := s.Wait(jobTmpl(), false)
	id := out(t, s, job(1))
	if id == 0 {
		t.Fatal("Out fed a hold-waiter and returned id 0")
	}
	copyOf(t, early, job(1), "reader registered before the takers")
	copyOf(t, late, job(1), "reader registered after the takers")
	h := recv(t, ws[0], "oldest taker")
	if !h.Tuple().Equal(job(1)) {
		t.Fatalf("held %v", h.Tuple())
	}
	if h.ID() != id {
		t.Fatalf("hold id %d, Out returned %d", h.ID(), id)
	}
	closedEmpty(t, ws[0], "oldest taker after its one hold")
	for k := 1; k < len(ws); k++ {
		parked(t, ws[k], "younger taker")
	}
	count(t, s, 0, "tuple under hold")
	h.Accept()
	count(t, s, 0, "after accept")

	// The seven are still registered, in order: the next out goes to the
	// second oldest and nobody else.
	out(t, s, job(2))
	h = recv(t, ws[1], "second oldest taker")
	if !h.Tuple().Equal(job(2)) {
		t.Fatalf("held %v", h.Tuple())
	}
	for k := 2; k < len(ws); k++ {
		parked(t, ws[k], "younger taker")
	}
	h.Accept()
	for k := 2; k < len(ws); k++ {
		ws[k].Cancel()
		closedEmpty(t, ws[k], "cancelled taker")
	}
	count(t, s, 0, "at the end")
}

func inOutranksTakers(t *testing.T, s space.Space) {
	// The taker is older, but its removal would only be tentative: the
	// parked in, whose removal is final, gets the tuple — and since
	// nothing was stored, the out reports id 0.
	taker := s.WaitHold(jobTmpl())
	in := s.Wait(jobTmpl(), true)
	if id := out(t, s, job(1)); id != 0 {
		t.Fatalf("Out consumed by a parked in returned id %d, want 0", id)
	}
	copyOf(t, in, job(1), "parked in")
	parked(t, taker, "taker passed over for an in")
	// With no in left, the next out is the taker's.
	out(t, s, job(2))
	h := recv(t, taker, "taker")
	if !h.Tuple().Equal(job(2)) {
		t.Fatalf("held %v", h.Tuple())
	}
	h.Accept()
	count(t, s, 0, "at the end")
}

func releaseFeedsNext(t *testing.T, s space.Space) {
	first, second := s.WaitHold(jobTmpl()), s.WaitHold(jobTmpl())
	out(t, s, job(1))
	h := recv(t, first, "first taker")
	parked(t, second, "second taker")
	// Reinstatement re-enters through Out, so it wakes the next taker.
	h.Release()
	h2 := recv(t, second, "second taker after release")
	if !h2.Tuple().Equal(job(1)) {
		t.Fatalf("held %v", h2.Tuple())
	}
	count(t, s, 0, "tuple under its second hold")
	h2.Release()
	count(t, s, 1, "released with nobody waiting")
	h2.Accept() // after Release: a no-op
	count(t, s, 1, "accept after release")
}

func immediateHit(t *testing.T, s space.Space) {
	id := out(t, s, job(1))
	w := s.WaitHold(jobTmpl())
	h := recv(t, w, "taker of a resident tuple")
	if h.ID() != id {
		t.Fatalf("hold id %d, Out returned %d", h.ID(), id)
	}
	count(t, s, 0, "resident tuple under hold")
	w.Cancel() // after delivery: a no-op
	h.Release()
	count(t, s, 1, "after release")
	if _, ok := s.Rdp(jobTmpl()); !ok {
		t.Fatal("released tuple not readable")
	}
	h = recv(t, s.WaitHold(jobTmpl()), "second taker")
	h.Accept()
	count(t, s, 0, "after accept")
}

func cancelThenOut(t *testing.T, s space.Space) {
	w := s.WaitHold(jobTmpl())
	w.Cancel()
	w.Cancel() // idempotent
	closedEmpty(t, w, "cancelled taker")
	if id := out(t, s, job(1)); id == 0 {
		t.Fatal("Out with no taker left returned id 0")
	}
	count(t, s, 1, "out after cancel")
}

func cancelAfterCommit(t *testing.T, s space.Space) {
	w := s.WaitHold(jobTmpl())
	out(t, s, job(1))
	// The out has committed the tuple to w; a cancel that lands now must
	// not lose it. This is the cancel edge of a served remote take.
	w.Cancel()
	h := recv(t, w, "cancelled taker with a committed hold")
	count(t, s, 0, "committed hold")
	h.Release()
	count(t, s, 1, "after releasing the committed hold")

	w = s.WaitHold(tuple.Tmpl(tuple.String("job"), tuple.Int(7)))
	out(t, s, job(7))
	space.Abandon(w)
	count(t, s, 2, "after abandon")
}

func formalLead(t *testing.T, s space.Space) {
	first, second := s.WaitHold(anyTmpl()), s.WaitHold(anyTmpl())
	id := out(t, s, job(1))
	if id == 0 {
		t.Fatal("Out fed a formal-lead hold-waiter and returned id 0")
	}
	h := recv(t, first, "oldest formal-lead taker")
	if h.ID() != id || !h.Tuple().Equal(job(1)) {
		t.Fatalf("hold %d %v, want %d %v", h.ID(), h.Tuple(), id, job(1))
	}
	parked(t, second, "younger formal-lead taker")
	count(t, s, 0, "tuple under hold")
	h.Accept()
	second.Cancel()
	closedEmpty(t, second, "cancelled formal-lead taker")

	// Untagged tuples live apart from tagged ones; the scan finds them.
	out(t, s, tuple.T(tuple.Int(3), tuple.Int(4)))
	h = recv(t, s.WaitHold(anyTmpl()), "formal-lead taker of a resident tuple")
	count(t, s, 0, "resident tuple under hold")
	h.Release()
	count(t, s, 1, "after release")
}

func outIDs(t *testing.T, s space.Space) {
	in := s.Wait(jobTmpl(), true)
	if id := out(t, s, job(1)); id != 0 {
		t.Fatalf("Out consumed by an in-waiter returned id %d, want 0", id)
	}
	copyOf(t, in, job(1), "in-waiter")
	w := s.WaitHold(jobTmpl())
	id := out(t, s, job(2))
	if id == 0 {
		t.Fatal("Out handed to a hold-waiter returned id 0")
	}
	h := recv(t, w, "taker")
	// The id is the entry's: while the hold stands Remove finds nothing,
	// as after a Hold.
	if s.Remove(id) {
		t.Fatal("Remove found an entry that is under a hold")
	}
	h.Accept()
}

func closeEnds(t *testing.T, s space.Space) {
	w := s.WaitHold(jobTmpl())
	g := s.WaitHold(anyTmpl())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closedEmpty(t, w, "taker on a closed space")
	closedEmpty(t, g, "formal-lead taker on a closed space")
	closedEmpty(t, s.WaitHold(jobTmpl()), "taker registered after close")
}
