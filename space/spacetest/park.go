// Package spacetest holds the contract tests every space.Space
// implementation runs: one table, so the optimised store, the naive
// oracle and the durable wrapper cannot drift apart on what a parked
// registration promises.
package spacetest

import (
	"sync"
	"testing"
	"time"

	"tiamat/space"
	"tiamat/tuple"
)

func job(v int64) tuple.Tuple { return tuple.T(tuple.String("job"), tuple.Int(v)) }
func jobTmpl() tuple.Template { return tuple.Tmpl(tuple.String("job"), tuple.FormalInt()) }
func anyTmpl() tuple.Template { return tuple.Tmpl(tuple.Any(), tuple.FormalInt()) }

// Delivery is one call a Catch's sink received.
type Delivery struct {
	T tuple.Tuple
	H space.Hold // nil for a copy
}

// Catch is a Park registration whose deliveries land on C, for tests
// that want to look at them after the fact. C is buffered beyond the one
// delivery the contract allows, so a second call shows up as a second
// value instead of blocking the space.
type Catch struct {
	space.Parked
	C chan Delivery
}

// Deliver implements space.Sink.
func (c *Catch) Deliver(t tuple.Tuple, h space.Hold) { c.C <- Delivery{t, h} }

// Park parks a Catch on s.
func Park(s space.Space, p tuple.Template, kind space.Kind) *Catch {
	c := &Catch{C: make(chan Delivery, 4)}
	c.Parked = s.Park(p, kind, c)
	return c
}

// Chan is a Park registration settled the way a node settles its own rd
// and in: a hold is accepted at once, and the tuple lands on C, buffered
// as Catch's is.
type Chan struct {
	space.Parked
	C chan tuple.Tuple
}

// Deliver implements space.Sink.
func (c *Chan) Deliver(t tuple.Tuple, h space.Hold) {
	if h != nil {
		h.Accept()
	}
	c.C <- t
}

// Wait parks a Chan on s: kind Read for an rd, Take for an in.
func Wait(s space.Space, p tuple.Template, kind space.Kind) *Chan {
	c := &Chan{C: make(chan tuple.Tuple, 4)}
	c.Parked = s.Park(p, kind, c)
	return c
}

// SinkFunc adapts a function to space.Sink.
type SinkFunc func(t tuple.Tuple, h space.Hold)

// Deliver implements space.Sink.
func (f SinkFunc) Deliver(t tuple.Tuple, h space.Hold) { f(t, h) }

func out(t *testing.T, s space.Space, tp tuple.Tuple) uint64 {
	t.Helper()
	id, err := s.Out(tp, time.Time{})
	if err != nil {
		t.Fatalf("Out(%v): %v", tp, err)
	}
	return id
}

// got takes c's one delivery, which the contract says has been made by
// the time the Out (or Park, or Release) that matched it returned: there
// is nothing to wait for.
func got(t *testing.T, c *Catch, what string) Delivery {
	t.Helper()
	select {
	case d := <-c.C:
		return d
	default:
		t.Fatalf("%s: not called by the time the matching call returned", what)
	}
	return Delivery{}
}

// held is got for a taker: the delivery must carry want under a hold.
func held(t *testing.T, c *Catch, want tuple.Tuple, what string) space.Hold {
	t.Helper()
	d := got(t, c, what)
	if d.H == nil || !d.T.Equal(want) || !d.H.Tuple().Equal(want) {
		t.Fatalf("%s: delivered %v under hold %v, want %v under a hold", what, d.T, d.H, want)
	}
	return d.H
}

// quiet fails if c's sink has been called (again).
func quiet(t *testing.T, c *Catch, what string) {
	t.Helper()
	select {
	case d := <-c.C:
		t.Fatalf("%s: called with %v, want no call", what, d.T)
	default:
	}
}

func count(t *testing.T, s space.Space, want int, what string) {
	t.Helper()
	if got := s.Count(); got != want {
		t.Fatalf("%s: Count() = %d, want %d", what, got, want)
	}
}

// Parking runs the Park contract against spaces made by open, which must
// return an empty space each time; the table closes it.
func Parking(t *testing.T, open func(t *testing.T) space.Space) {
	cases := []struct {
		name string
		run  func(t *testing.T, s space.Space)
	}{
		{"one out wakes the oldest of eight", oldestOfEight},
		{"a parked in outranks parked takers", inOutranksTakers},
		{"a take is served in age order among readers", takeAmongReaders},
		{"a release goes to the next taker", releaseFeedsNext},
		{"a released hold stays settled", staleHold},
		{"a resident match is held at once", immediateHit},
		{"cancel before the out leaves the tuple", cancelThenOut},
		{"a committed hold survives cancel", cancelAfterCommit},
		{"formal-lead templates take the same path", formalLead},
		{"every out returns an id", outIDs},
		{"close ends parked takers", closeEnds},
		{"the sink runs inside the out and may call back", sinkReenters},
		{"readers are served before the taker", readersFirst},
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

// copyOf takes a reader's delivery: a copy of want, under no hold.
func copyOf(t *testing.T, c *Catch, want tuple.Tuple, what string) {
	t.Helper()
	if d := got(t, c, what); d.H != nil || !d.T.Equal(want) {
		t.Fatalf("%s got %v under hold %v, want a copy of %v", what, d.T, d.H, want)
	}
}

func oldestOfEight(t *testing.T, s space.Space) {
	// Every parked reader is owed a copy, wherever it stands in line.
	early := Park(s, jobTmpl(), space.Read)
	ws := make([]*Catch, 8)
	for k := range ws {
		ws[k] = Park(s, jobTmpl(), space.Claim)
	}
	late := Park(s, jobTmpl(), space.Read)
	id := out(t, s, job(1))
	if id == 0 {
		t.Fatal("Out fed a parked taker and returned id 0")
	}
	copyOf(t, early, job(1), "reader registered before the takers")
	copyOf(t, late, job(1), "reader registered after the takers")
	h := held(t, ws[0], job(1), "oldest taker")
	if h.ID() != id {
		t.Fatalf("hold id %d, Out returned %d", h.ID(), id)
	}
	for k := 1; k < len(ws); k++ {
		quiet(t, ws[k], "younger taker")
	}
	count(t, s, 0, "tuple under hold")
	h.Accept()
	count(t, s, 0, "after accept")

	// The seven are still registered, in order: the next out goes to the
	// second oldest and nobody else.
	out(t, s, job(2))
	h = held(t, ws[1], job(2), "second oldest taker")
	quiet(t, ws[0], "oldest taker after its one hold")
	for k := 2; k < len(ws); k++ {
		quiet(t, ws[k], "younger taker")
	}
	h.Accept()
	for k := 2; k < len(ws); k++ {
		if !ws[k].Cancel() {
			t.Fatalf("taker %d: Cancel() = false with nothing delivered", k)
		}
	}
	out(t, s, job(3))
	for k := range ws {
		quiet(t, ws[k], "settled or cancelled taker")
	}
	count(t, s, 1, "at the end")
}

func inOutranksTakers(t *testing.T, s space.Space) {
	// The claim is older, but its removal would stay tentative for a round
	// trip: the parked in, whose holder accepts at once, gets the tuple.
	taker := Park(s, jobTmpl(), space.Claim)
	in := Park(s, jobTmpl(), space.Take)
	id := out(t, s, job(1))
	if h := held(t, in, job(1), "parked in"); h.ID() != id {
		t.Fatalf("in's hold id %d, Out returned %d", h.ID(), id)
	} else {
		h.Accept()
	}
	quiet(t, taker, "taker passed over for an in")
	// With no in left, the next out is the taker's.
	out(t, s, job(2))
	held(t, taker, job(2), "taker").Accept()
	count(t, s, 0, "at the end")
}

// takeAmongReaders: a Take stands in line with the readers — those parked
// before it get their copies, called first; the tuple is then the Take's,
// and a reader parked after it waits for the next out.
func takeAmongReaders(t *testing.T, s space.Space) {
	var order []string
	note := func(who string) space.Sink {
		return SinkFunc(func(tp tuple.Tuple, h space.Hold) {
			order = append(order, who) // same goroutine as the Out
			if h != nil {
				h.Accept()
			}
		})
	}
	s.Park(jobTmpl(), space.Read, note("older reader"))
	s.Park(jobTmpl(), space.Take, note("in"))
	younger := Park(s, jobTmpl(), space.Read)
	out(t, s, job(1))
	if len(order) != 2 || order[0] != "older reader" || order[1] != "in" {
		t.Fatalf("called %v, want the older reader and then the in", order)
	}
	quiet(t, younger, "reader parked behind the in")
	count(t, s, 0, "after the in accepted")
	out(t, s, job(2))
	copyOf(t, younger, job(2), "reader parked behind the in, next out")
	count(t, s, 1, "at the end")
}

func releaseFeedsNext(t *testing.T, s space.Space) {
	first, second := Park(s, jobTmpl(), space.Claim), Park(s, jobTmpl(), space.Claim)
	out(t, s, job(1))
	h := held(t, first, job(1), "first taker")
	quiet(t, second, "second taker")
	// Reinstatement re-enters through Out, so it calls the next taker —
	// before Release returns.
	h.Release()
	h2 := held(t, second, job(1), "second taker after release")
	count(t, s, 0, "tuple under its second hold")
	h2.Release()
	count(t, s, 1, "released with nobody waiting")
	h2.Accept() // after Release: a no-op
	count(t, s, 1, "accept after release")
	// It is the same entry throughout: what was recorded against its id
	// (an out-lease, replica copies) still names it.
	h3, ok := s.Hold(jobTmpl())
	if !ok || h2.ID() != h.ID() || h3.ID() != h.ID() {
		t.Fatalf("ids %d, %d, %d across two releases, want one id", h.ID(), h2.ID(), h3.ID())
	}
	h3.Release()
	if !s.Remove(h.ID()) {
		t.Fatal("Remove did not find the released tuple under its first id")
	}
}

// staleHold: a released tuple is held again through a handle of its own;
// the first handle's Release and Accept change nothing.
func staleHold(t *testing.T, s space.Space) {
	out(t, s, job(1))
	first, _ := s.Hold(jobTmpl())
	first.Release()
	second := held(t, Park(s, jobTmpl(), space.Claim), job(1), "second holder")
	first.Release()
	first.Accept()
	count(t, s, 0, "stale release and accept under the second hold")
	second.Release()
	count(t, s, 1, "second hold released")
}

func immediateHit(t *testing.T, s space.Space) {
	id := out(t, s, job(1))
	w := Park(s, jobTmpl(), space.Claim)
	h := held(t, w, job(1), "taker of a resident tuple, inside Park")
	if h.ID() != id {
		t.Fatalf("hold id %d, Out returned %d", h.ID(), id)
	}
	count(t, s, 0, "resident tuple under hold")
	if w.Cancel() {
		t.Fatal("Cancel() = true after the delivery")
	}
	h.Release()
	count(t, s, 1, "after release")
	if _, ok := s.Rdp(jobTmpl()); !ok {
		t.Fatal("released tuple not readable")
	}
	// A resident match for a reader is a copy: the tuple stays.
	copyOf(t, Park(s, jobTmpl(), space.Read), job(1), "reader of a resident tuple, inside Park")
	count(t, s, 1, "after a copy")
	held(t, Park(s, jobTmpl(), space.Take), job(1), "in of a resident tuple, inside Park").Accept()
	count(t, s, 0, "after accept")
}

func cancelThenOut(t *testing.T, s space.Space) {
	w := Park(s, jobTmpl(), space.Claim)
	// True means never: the sink is not called, now or later.
	if !w.Cancel() || !w.Cancel() {
		t.Fatal("Cancel() of a parked taker = false")
	}
	if id := out(t, s, job(1)); id == 0 {
		t.Fatal("Out with no taker left returned id 0")
	}
	quiet(t, w, "cancelled taker")
	count(t, s, 1, "out after cancel")
}

func cancelAfterCommit(t *testing.T, s space.Space) {
	w := Park(s, jobTmpl(), space.Claim)
	out(t, s, job(1))
	// The out has committed the tuple to w; a cancel that lands now must
	// not lose it, and must say so. This is the cancel edge of a served
	// remote take. False means once: the hold is the sink's to settle.
	if w.Cancel() || w.Cancel() {
		t.Fatal("Cancel() = true after a hold was committed")
	}
	h := held(t, w, job(1), "cancelled taker with a committed hold")
	quiet(t, w, "taker called once already")
	count(t, s, 0, "committed hold")
	h.Release()
	count(t, s, 1, "after releasing the committed hold")
}

func formalLead(t *testing.T, s space.Space) {
	first, second := Park(s, anyTmpl(), space.Claim), Park(s, anyTmpl(), space.Claim)
	id := out(t, s, job(1))
	if id == 0 {
		t.Fatal("Out fed a formal-lead taker and returned id 0")
	}
	h := held(t, first, job(1), "oldest formal-lead taker")
	if h.ID() != id {
		t.Fatalf("hold id %d, Out returned %d", h.ID(), id)
	}
	quiet(t, second, "younger formal-lead taker")
	count(t, s, 0, "tuple under hold")
	h.Accept()
	if !second.Cancel() {
		t.Fatal("Cancel() of a parked formal-lead taker = false")
	}

	// Untagged tuples live apart from tagged ones; the scan finds them.
	pair := tuple.T(tuple.Int(3), tuple.Int(4))
	out(t, s, pair)
	h = held(t, Park(s, anyTmpl(), space.Claim), pair, "formal-lead taker of a resident tuple")
	count(t, s, 0, "resident tuple under hold")
	h.Release()
	count(t, s, 1, "after release")
}

func outIDs(t *testing.T, s space.Space) {
	// Whoever is handed the tuple, it was stored first: the id is the
	// entry's, and while the hold stands Remove finds nothing, as after a
	// Hold.
	for _, kind := range []space.Kind{space.Take, space.Claim} {
		w := Park(s, jobTmpl(), kind)
		id := out(t, s, job(1))
		if id == 0 {
			t.Fatalf("kind %d: Out handed to a parked registration returned id 0", kind)
		}
		h := held(t, w, job(1), "parked registration")
		if h.ID() != id {
			t.Fatalf("kind %d: hold id %d, Out returned %d", kind, h.ID(), id)
		}
		if s.Remove(id) {
			t.Fatalf("kind %d: Remove found an entry that is under a hold", kind)
		}
		h.Accept()
	}
	if id := out(t, s, job(2)); id == 0 {
		t.Fatal("Out with nobody parked returned id 0")
	}
}

func closeEnds(t *testing.T, s space.Space) {
	w, g, r := Park(s, jobTmpl(), space.Claim), Park(s, anyTmpl(), space.Claim), Park(s, jobTmpl(), space.Read)
	in := Park(s, jobTmpl(), space.Take)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	late := Park(s, jobTmpl(), space.Take)
	// Close calls no sink, so every Cancel can still promise "never".
	for _, c := range []*Catch{w, g, r, in, late} {
		quiet(t, c, "registration on a closed space")
		if !c.Cancel() {
			t.Fatal("Cancel() = false on a closed space, where no sink was called")
		}
	}
}

// sinkReenters: the sink is called with none of the space's locks held,
// on the goroutine of the matching Out and before it returns — so it can
// do to the space whatever its caller could. A durable space is opened
// with a compaction threshold small enough that the release in here
// rotates the log.
func sinkReenters(t *testing.T, s space.Space) {
	ran := false
	s.Park(jobTmpl(), space.Claim, SinkFunc(func(tp tuple.Tuple, h space.Hold) {
		ran = true // unsynchronised on purpose: same goroutine, or -race says so
		count(t, s, 0, "inside the sink, tuple under hold")
		notes := tuple.Tmpl(tuple.String("note"), tuple.FormalInt())
		for k := int64(0); k < 8; k++ { // enough log for a durable space to want rotating
			out(t, s, tuple.T(tuple.String("note"), tuple.Int(k)))
			if _, ok := s.Inp(notes); !ok {
				t.Error("Inp inside the sink missed the tuple the sink just put out")
			}
		}
		out(t, s, tuple.T(tuple.String("note"), tuple.Int(8)))
		other, ok := s.Hold(notes)
		if !ok {
			t.Error("Hold inside the sink missed the tuple the sink just put out")
			return
		}
		other.Release()
		h.Release()
		count(t, s, 2, "inside the sink, after both releases")
	}))
	out(t, s, job(1))
	if !ran {
		t.Fatal("Out returned before the sink had run")
	}
	// The same from inside Park, for a resident match, and from inside the
	// Release that feeds the next taker.
	ran = false
	var first space.Hold
	s.Park(jobTmpl(), space.Claim, SinkFunc(func(tp tuple.Tuple, h space.Hold) { ran, first = true, h }))
	if !ran {
		t.Fatal("Park returned before the sink had run on a resident match")
	}
	ran = false
	s.Park(jobTmpl(), space.Take, SinkFunc(func(tp tuple.Tuple, h space.Hold) {
		ran = true
		h.Accept()
		count(t, s, 1, "inside the sink a release called")
	}))
	first.Release()
	if !ran {
		t.Fatal("Release returned before the next taker's sink had run")
	}
	count(t, s, 1, "at the end")
}

// readersFirst: one Out serves every parked reader and one claim — the
// readers first, so a copy is never of a tuple whose holder has already
// been told it is theirs.
func readersFirst(t *testing.T, s space.Space) {
	var mu sync.Mutex
	var order []string
	note := func(who string) space.Sink {
		return SinkFunc(func(tp tuple.Tuple, h space.Hold) {
			mu.Lock()
			order = append(order, who)
			mu.Unlock()
			if h != nil {
				h.Accept()
			}
		})
	}
	s.Park(jobTmpl(), space.Claim, note("taker"))
	s.Park(jobTmpl(), space.Read, note("reader"))
	s.Park(anyTmpl(), space.Read, note("formal-lead reader"))
	younger := Park(s, jobTmpl(), space.Claim)
	if id := out(t, s, job(1)); id == 0 {
		t.Fatal("Out fed a parked taker and returned id 0")
	}
	if len(order) != 3 || order[2] != "taker" {
		t.Fatalf("called %v, want both readers and then the taker", order)
	}
	quiet(t, younger, "younger taker")
	count(t, s, 0, "after the taker accepted")
	// The readers were one-shot: the next out is the younger taker's alone.
	out(t, s, job(2))
	if len(order) != 3 {
		t.Fatalf("a settled registration was called again: %v", order)
	}
	held(t, younger, job(2), "younger taker").Accept()
}
