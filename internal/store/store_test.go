package store

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tiamat/clock"
	"tiamat/space"
	"tiamat/space/spacetest"
	"tiamat/tuple"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func newTest() (*Store, *clock.Virtual) {
	clk := clock.NewVirtual(epoch)
	return New(WithClock(clk), WithSeed(42)), clk
}

func req(id int64) tuple.Tuple { return tuple.T(tuple.String("req"), tuple.Int(id)) }
func reqTmpl() tuple.Template  { return tuple.Tmpl(tuple.String("req"), tuple.FormalInt()) }
func never() time.Time         { return time.Time{} }

func TestOutRdpInp(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("Rdp on empty space matched")
	}
	if _, err := s.Out(req(1), never()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Rdp(reqTmpl())
	if !ok || !got.Equal(req(1)) {
		t.Fatalf("Rdp = %v %v", got, ok)
	}
	if s.Count() != 1 {
		t.Fatal("Rdp must not remove")
	}
	got, ok = s.Inp(reqTmpl())
	if !ok || !got.Equal(req(1)) {
		t.Fatalf("Inp = %v %v", got, ok)
	}
	if s.Count() != 0 {
		t.Fatal("Inp must remove")
	}
	if _, ok := s.Inp(reqTmpl()); ok {
		t.Fatal("second Inp matched")
	}
}

// TestDenseRdpAllocatesNothing: a formal template over a dense tag bucket
// collects its candidates without a heap slice.
func TestDenseRdpAllocatesNothing(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	for k := int64(0); k < 1024; k++ {
		if _, err := s.Out(req(k), never()); err != nil {
			t.Fatal(err)
		}
	}
	p := reqTmpl()
	if got := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Rdp(p); !ok {
			t.Fatal("no match in a full bucket")
		}
	}); got != 0 {
		t.Fatalf("Rdp over 1024 matches: %.2f allocs, want 0", got)
	}
}

func TestArityIsolation(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(tuple.T(tuple.Int(1)), never())
	s.Out(tuple.T(tuple.Int(1), tuple.Int(2)), never())
	if _, ok := s.Rdp(tuple.Tmpl(tuple.FormalInt())); !ok {
		t.Fatal("arity-1 lookup failed")
	}
	if _, ok := s.Rdp(tuple.Tmpl(tuple.FormalInt(), tuple.FormalInt(), tuple.FormalInt())); ok {
		t.Fatal("arity-3 lookup matched")
	}
}

func TestNondeterministicSelectionCoversAll(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	for i := int64(0); i < 5; i++ {
		s.Out(req(i), never())
	}
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		got, ok := s.Rdp(reqTmpl())
		if !ok {
			t.Fatal("no match")
		}
		id, _ := got.IntAt(1)
		seen[id] = true
	}
	if len(seen) < 3 {
		t.Fatalf("selection not spread across matches: saw %v", seen)
	}
}

// none fails if w has been delivered to (again).
func none(t *testing.T, w *spacetest.Chan, what string) {
	t.Helper()
	select {
	case got := <-w.C:
		t.Fatalf("%s: delivered %v", what, got)
	default:
	}
}

// one takes w's delivery, made by the time the matching call returned.
func one(t *testing.T, w *spacetest.Chan, want tuple.Tuple, what string) {
	t.Helper()
	select {
	case got := <-w.C:
		if !got.Equal(want) {
			t.Fatalf("%s: delivered %v, want %v", what, got, want)
		}
	default:
		t.Fatalf("%s: not delivered", what)
	}
}

func TestWaitRdDeliversCopyAndKeepsTuple(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := spacetest.Wait(s, reqTmpl(), space.Read)
	none(t, w, "waiter before Out")
	s.Out(req(7), never())
	one(t, w, req(7), "waiter")
	if s.Count() != 1 {
		t.Fatal("rd-waiter consumed the tuple")
	}
	none(t, w, "waiter after its single delivery")
}

func TestWaitInConsumes(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := spacetest.Wait(s, reqTmpl(), space.Take)
	s.Out(req(9), never())
	one(t, w, req(9), "waiter")
	if s.Count() != 0 {
		t.Fatal("in-waiter did not consume the tuple")
	}
}

func TestWaiterFIFOReadersThenTaker(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	r1 := spacetest.Wait(s, reqTmpl(), space.Read)
	r2 := spacetest.Wait(s, reqTmpl(), space.Read)
	in1 := spacetest.Wait(s, reqTmpl(), space.Take)
	in2 := spacetest.Wait(s, reqTmpl(), space.Take)
	s.Out(req(1), never())
	one(t, r1, req(1), "reader 1")
	one(t, r2, req(1), "reader 2")
	one(t, in1, req(1), "first taker")
	none(t, in2, "second taker, for a single tuple")
	if s.Count() != 0 {
		t.Fatal("tuple stored despite taker")
	}
	in2.Cancel()
}

func TestWaiterCancel(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := spacetest.Wait(s, reqTmpl(), space.Take)
	if !w.Cancel() || !w.Cancel() { // idempotent
		t.Fatal("Cancel() of a parked waiter = false")
	}
	s.Out(req(1), never())
	none(t, w, "cancelled waiter")
	if s.Count() != 1 {
		t.Fatal("tuple should be stored after waiter cancelled")
	}
}

func TestWaiterMismatchedTemplateNotServed(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	w := spacetest.Wait(s, tuple.Tmpl(tuple.String("resp"), tuple.FormalInt()), space.Take)
	defer w.Cancel()
	s.Out(req(1), never())
	none(t, w, "mismatched waiter")
	if s.Count() != 1 {
		t.Fatal("tuple missing")
	}
}

func TestHoldAcceptRemoves(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	h, ok := s.Hold(reqTmpl())
	if !ok {
		t.Fatal("Hold found nothing")
	}
	if !h.Tuple().Equal(req(1)) {
		t.Fatalf("held %v", h.Tuple())
	}
	if s.Count() != 0 {
		t.Fatal("held tuple still visible")
	}
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("held tuple matched")
	}
	h.Accept()
	h.Release() // no-op after accept
	if s.Count() != 0 {
		t.Fatal("release after accept reinstated")
	}
}

func TestHoldReleaseReinstates(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	h, _ := s.Hold(reqTmpl())
	h.Release()
	h.Accept() // no-op after release
	got, ok := s.Rdp(reqTmpl())
	if !ok || !got.Equal(req(1)) {
		t.Fatal("released tuple not reinstated")
	}
}

func TestHoldReleaseServesWaiter(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	h, _ := s.Hold(reqTmpl())
	w := spacetest.Wait(s, reqTmpl(), space.Take)
	h.Release()
	one(t, w, req(1), "waiter, by the reinstated tuple")
}

func TestLeaseExpiryReclaims(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	s.Out(req(1), epoch.Add(10*time.Second))
	s.Out(req(2), epoch.Add(20*time.Second))
	s.Out(req(3), never())
	clk.Advance(10 * time.Second)
	if s.Count() != 2 {
		t.Fatalf("Count = %d after first expiry, want 2", s.Count())
	}
	clk.Advance(10 * time.Second)
	if s.Count() != 1 {
		t.Fatalf("Count = %d after second expiry, want 1", s.Count())
	}
	if s.Reclaimed() != 2 {
		t.Fatalf("Reclaimed = %d", s.Reclaimed())
	}
	clk.Advance(time.Hour)
	if s.Count() != 1 {
		t.Fatal("never-expiring tuple reclaimed")
	}
}

func TestExpiredTupleInvisibleBeforeJanitor(t *testing.T) {
	// Even if the janitor has not run (e.g. timer about to fire), an
	// expired tuple must not match.
	s, clk := newTest()
	defer s.Close()
	s.Out(req(1), epoch.Add(time.Second))
	// Advance to exactly the expiry instant: tuple is no longer visible.
	if _, ok := s.Rdp(reqTmpl()); !ok {
		t.Fatal("tuple should be visible before expiry")
	}
	clk.AdvanceTo(epoch.Add(time.Second))
	if _, ok := s.Rdp(reqTmpl()); ok {
		t.Fatal("expired tuple matched")
	}
}

// TestExpiredReinstatementDoesNotDeadlock: a tuple stored with an expiry
// that has already passed — a hold released after it outlived its tuple's
// lease, or an Out that is late from the start — must not expire inline
// on a virtual clock. With a per-shard janitor timer the past-due delay
// was clamped to zero, which clock.Virtual runs on the spot: reclaim then
// took the shard lock its own caller held. (space/persist runs the same
// case through the WAL wrapper.)
func TestExpiredReinstatementDoesNotDeadlock(t *testing.T) {
	s, clk := newTest()
	s.Out(req(1), epoch.Add(time.Second))
	h, ok := s.Hold(reqTmpl())
	if !ok {
		t.Fatal("Hold found nothing")
	}
	clk.Advance(2 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Release()
		s.Out(req(2), clk.Now().Add(-time.Second))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("storing an already expired tuple never returned") // and Close would hang too
	}
	if got, ok := s.Rdp(reqTmpl()); ok {
		t.Fatalf("expired tuple %v matched", got)
	}
	clk.Advance(time.Nanosecond)
	if s.Count() != 0 || s.Reclaimed() != 2 {
		t.Fatalf("after the next clock step: count %d, reclaimed %d, want 0 and 2", s.Count(), s.Reclaimed())
	}
	s.Close()
}

func TestRemoveByID(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	id, _ := s.Out(req(1), never())
	if got, ok := s.Remove(id); !ok || !got.Equal(req(1)) {
		t.Fatalf("Remove = %v %v, want the tuple", got, ok)
	}
	if _, ok := s.Remove(id); ok {
		t.Fatal("second Remove reported present")
	}
	if s.Count() != 0 {
		t.Fatal("tuple survived Remove")
	}
}

func TestRemoveExpiringTupleCleansHeap(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	id, _ := s.Out(req(1), epoch.Add(time.Second))
	s.Remove(id)
	clk.Advance(time.Hour) // janitor must not double-free
	if s.Reclaimed() != 0 {
		t.Fatalf("Reclaimed = %d for already-removed tuple", s.Reclaimed())
	}
}

// TestJanitorSchedulesOnAHandedQueue: a store handed a clock.Queue as its
// clock makes each shard's reclaim an entry on that queue and arms no
// timer of its own. Close cancels its shards' entries and leaves the
// queue open.
func TestJanitorSchedulesOnAHandedQueue(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	q := clock.NewQueue(clk)
	s := New(WithClock(q), WithShards(1))
	if _, err := s.Out(req(1), clk.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Out(tuple.T(tuple.Int(2)), clk.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 || clk.Pending() != 1 {
		t.Fatalf("%d entries on the queue, %d timers: want the two shards and the queue's 1", q.Len(), clk.Pending())
	}
	clk.Advance(time.Second)
	if s.Reclaimed() != 1 || q.Len() != 1 {
		t.Fatalf("reclaimed %d, %d entries: want 1 and the scan shard's", s.Reclaimed(), q.Len())
	}
	s.Close()
	if q.Len() != 0 {
		t.Fatalf("Close left %d entries", q.Len())
	}
	fired := false
	q.Schedule(&probe{f: func() { fired = true }}, clk.Now().Add(time.Second))
	clk.Advance(time.Second)
	if !fired {
		t.Fatal("the store closed the queue it was handed")
	}
}

// probe is a queue entry that runs f.
type probe struct {
	clock.Deadline
	f func()
}

func (p *probe) Expire() { p.f() }

func TestBytesAndSnapshot(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(req(1), never())
	s.Out(tuple.T(tuple.Bytes(make([]byte, 100))), never())
	if s.Bytes() < 100 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d", len(snap))
	}
}

func TestCloseCancelsWaitersAndRefusesOut(t *testing.T) {
	s, _ := newTest()
	w := spacetest.Wait(s, reqTmpl(), space.Take)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	if _, err := s.Out(req(1), never()); err != ErrClosed {
		t.Fatalf("Out after close: %v", err)
	}
	w2 := spacetest.Wait(s, reqTmpl(), space.Read)
	// Close calls no sink: both registrations end undelivered.
	for _, w := range []*spacetest.Chan{w, w2} {
		none(t, w, "waiter on a closed store")
		if !w.Cancel() {
			t.Fatal("Cancel() = false on a closed store")
		}
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	const n = 200
	var wg sync.WaitGroup
	consumed := make(chan int64, n)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w := spacetest.Wait(s, reqTmpl(), space.Take)
				var got tuple.Tuple
				select {
				case got = <-w.C:
				case <-stop:
					if w.Cancel() {
						return
					}
					got = <-w.C
				}
				id, _ := got.IntAt(1)
				consumed <- id
				if len(consumed) == n {
					return
				}
			}
		}()
	}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if _, err := s.Out(req(int64(p*1000+i)), never()); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		for len(consumed) < n {
			time.Sleep(time.Millisecond)
		}
		close(stop) // unblock remaining waiters
		close(done)
	}()
	wg.Wait()
	<-done
	// Every produced tuple was consumed exactly once.
	seen := map[int64]bool{}
	close(consumed)
	for id := range consumed {
		if seen[id] {
			t.Fatalf("tuple %d consumed twice", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("consumed %d tuples, want %d", len(seen), n)
	}
	if s.Count() != 0 {
		t.Fatalf("%d tuples left over", s.Count())
	}
}

// Property: racing Hold/Inp operations never duplicate or lose a tuple.
func TestPropHoldNeverDuplicates(t *testing.T) {
	prop := func(seed int64, releaseMask uint8) bool {
		s := New(WithSeed(seed))
		defer s.Close()
		const total = 8
		for i := int64(0); i < total; i++ {
			s.Out(req(i), never())
		}
		var holds []space.Hold
		for {
			h, ok := s.Hold(reqTmpl())
			if !ok {
				break
			}
			holds = append(holds, h)
		}
		if len(holds) != total {
			return false
		}
		released := 0
		for i, h := range holds {
			if releaseMask&(1<<uint(i)) != 0 {
				h.Release()
				released++
			} else {
				h.Accept()
			}
		}
		return s.Count() == released
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved Out/Inp conserves tuples (stored - taken = live).
func TestPropConservation(t *testing.T) {
	prop := func(ops []bool, seed int64) bool {
		s := New(WithSeed(seed))
		defer s.Close()
		live := 0
		for i, isOut := range ops {
			if isOut {
				s.Out(req(int64(i)), never())
				live++
			} else if _, ok := s.Inp(reqTmpl()); ok {
				live--
			}
		}
		return s.Count() == live
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after random expiries and a long janitor run, exactly the
// never-expiring tuples remain.
func TestPropExpiryExactness(t *testing.T) {
	prop := func(durs []uint16) bool {
		clk := clock.NewVirtual(epoch)
		s := New(WithClock(clk), WithSeed(7))
		defer s.Close()
		forever := 0
		for i, d := range durs {
			if d%5 == 0 {
				s.Out(req(int64(i)), never())
				forever++
			} else {
				s.Out(req(int64(i)), epoch.Add(time.Duration(d)*time.Millisecond))
			}
		}
		clk.Advance(100 * time.Second)
		return s.Count() == forever
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTagIndexCorrectAcrossMixedTags(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	s.Out(tuple.T(tuple.String("alpha"), tuple.Int(1)), never())
	s.Out(tuple.T(tuple.String("beta"), tuple.Int(2)), never())
	s.Out(tuple.T(tuple.Int(99), tuple.Int(3)), never()) // untagged (non-string lead)

	if got, ok := s.Rdp(tuple.Tmpl(tuple.String("alpha"), tuple.FormalInt())); !ok {
		t.Fatal("tagged lookup failed")
	} else if v, _ := got.IntAt(1); v != 1 {
		t.Fatalf("wrong tuple: %v", got)
	}
	// A formal lead falls back to the arity index and can see everything.
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		got, ok := s.Rdp(tuple.Tmpl(tuple.Any(), tuple.FormalInt()))
		if !ok {
			t.Fatal("wildcard lookup failed")
		}
		v, _ := got.IntAt(1)
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("wildcard lookup saw %v, want all 3", seen)
	}
	// Takes clean both indexes.
	if _, ok := s.Inp(tuple.Tmpl(tuple.String("beta"), tuple.FormalInt())); !ok {
		t.Fatal("tagged take failed")
	}
	if _, ok := s.Rdp(tuple.Tmpl(tuple.String("beta"), tuple.FormalInt())); ok {
		t.Fatal("taken tuple still indexed by tag")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestTagIndexExpiryCleansBuckets(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	s.Out(tuple.T(tuple.String("tmp"), tuple.Int(1)), epoch.Add(time.Second))
	clk.Advance(2 * time.Second)
	if _, ok := s.Rdp(tuple.Tmpl(tuple.String("tmp"), tuple.FormalInt())); ok {
		t.Fatal("expired tuple visible via tag index")
	}
	// Reuse of the same tag works after reclamation.
	s.Out(tuple.T(tuple.String("tmp"), tuple.Int(2)), never())
	if got, ok := s.Rdp(tuple.Tmpl(tuple.String("tmp"), tuple.FormalInt())); !ok {
		t.Fatal("fresh tagged tuple invisible")
	} else if v, _ := got.IntAt(1); v != 2 {
		t.Fatalf("got %v", got)
	}
}

// TestExactKeyAfterTag: a template that pins the field after the tag
// must find exactly its tuple among same-tag neighbours — the case an
// index on (tag, first actual) serves, and the one a broken index that
// never returned a tag+key match would fail while every formal-key test
// above still passed.
func TestExactKeyAfterTag(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	for id := int64(0); id < 64; id++ {
		s.Out(req(id), never())
	}
	s.Out(tuple.T(tuple.String("other"), tuple.Int(40)), never())
	exact := func(id int64) tuple.Template { return tuple.Tmpl(tuple.String("req"), tuple.Int(id)) }

	if got, ok := s.Rdp(exact(40)); !ok || !got.Equal(req(40)) {
		t.Fatalf("Rdp exact key = %v %v", got, ok)
	}
	if _, ok := s.Rdp(exact(64)); ok {
		t.Fatal("Rdp matched a key that was never stored")
	}
	if got, ok := s.Inp(exact(40)); !ok || !got.Equal(req(40)) {
		t.Fatalf("Inp exact key = %v %v", got, ok)
	}
	if _, ok := s.Rdp(exact(40)); ok {
		t.Fatal("taken key still matches")
	}
	if s.Count() != 64 {
		t.Fatalf("count = %d, want the other 63 and the other tag", s.Count())
	}
	// Stored again, the key is found again (index entries are not stale).
	s.Out(req(40), never())
	if h, ok := s.Hold(exact(40)); !ok || !h.Tuple().Equal(req(40)) {
		t.Fatal("Hold exact key after re-out failed")
	} else {
		h.Release()
	}
	if got, ok := s.Inp(exact(40)); !ok || !got.Equal(req(40)) {
		t.Fatalf("Inp exact key after release = %v %v", got, ok)
	}
}

// TestHoldWaiterContract runs the shared Park table (spacetest), the one
// space/naive and space/persist run too.
func TestHoldWaiterContract(t *testing.T) {
	spacetest.Parking(t, func(*testing.T) space.Space { return New(WithSeed(42)) })
}

// TestHoldWaitersWakeInSeqOrder pins the store's own FIFO across its two
// waiter lists: pinned and formal-lead takers parked alternately are
// called strictly oldest first, exactly one per Out, inside it.
func TestHoldWaitersWakeInSeqOrder(t *testing.T) {
	s, _ := newTest()
	defer s.Close()
	ws := make([]*spacetest.Catch, 8)
	for k := range ws {
		if k%2 == 0 {
			ws[k] = spacetest.Park(s, reqTmpl(), space.Claim)
		} else {
			ws[k] = spacetest.Park(s, tuple.Tmpl(tuple.Any(), tuple.FormalInt()), space.Claim)
		}
	}
	for k := range ws {
		id, err := s.Out(req(int64(k)), never())
		if err != nil || id == 0 {
			t.Fatalf("Out %d = %d %v", k, id, err)
		}
		select {
		case d := <-ws[k].C:
			if d.H == nil || d.H.ID() != id || !d.T.Equal(req(int64(k))) {
				t.Fatalf("waiter %d got %v under %v", k, d.T, d.H)
			}
			d.H.Accept()
		default:
			t.Fatalf("out %d did not call waiter %d, the oldest left", k, k)
		}
		for j := range ws {
			select {
			case d := <-ws[j].C:
				t.Fatalf("out %d called waiter %d with %v", k, j, d.T)
			default:
			}
		}
		if s.Count() != 0 {
			t.Fatalf("out %d left %d tuples resident", k, s.Count())
		}
	}
}

// TestHoldWaiterKeepsExpiry: a hold handed over by an Out carries the
// expiry that Out was given, so a release reinstates a tuple that still
// lapses on time.
func TestHoldWaiterKeepsExpiry(t *testing.T) {
	s, clk := newTest()
	defer s.Close()
	w := spacetest.Park(s, reqTmpl(), space.Claim)
	s.Out(req(1), epoch.Add(time.Second))
	select {
	case d := <-w.C:
		d.H.Release()
	default:
		t.Fatal("no hold delivered")
	}
	if s.Count() != 1 {
		t.Fatalf("count after release = %d", s.Count())
	}
	clk.Advance(2 * time.Second)
	if s.Count() != 0 || s.Reclaimed() != 1 {
		t.Fatalf("count = %d, reclaimed = %d: released tuple outlived its lease", s.Count(), s.Reclaimed())
	}
}
