package clock

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// probe is a queue entry that records its expiries in a shared log.
type probe struct {
	Deadline
	id    int
	log   *[]int
	fired atomic.Int32
	then  func() // optional extra work inside Expire
}

func (p *probe) Expire() {
	p.fired.Add(1)
	if p.log != nil {
		*p.log = append(*p.log, p.id)
	}
	if p.then != nil {
		p.then()
	}
}

// TestQueueRandomAgainstReference drives random schedule / re-schedule /
// cancel / advance steps against a sorted reference: entries fire in
// deadline order with ties in schedule order, a cancelled entry never
// fires, Cancel reports whether it prevented the firing, and at most one
// clock timer is ever pending.
func TestQueueRandomAgainstReference(t *testing.T) {
	type ref struct {
		at  time.Time
		seq int
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual(epoch)
		q := NewQueue(v)
		var log []int
		probes := make([]*probe, 40)
		for i := range probes {
			probes[i] = &probe{id: i, log: &log}
		}
		want := map[int]ref{} // scheduled and not yet fired or cancelled
		seq := 0
		for step := 0; step < 600; step++ {
			id := rng.Intn(len(probes))
			switch r := rng.Intn(10); {
			case r < 5:
				// Few distinct instants, so equal deadlines are common; some
				// already past, which must wait for the next firing.
				at := v.Now().Add(time.Duration(rng.Intn(12)-2) * time.Second)
				seq++
				q.Schedule(probes[id], at)
				want[id] = ref{at: at, seq: seq}
			case r < 8:
				_, scheduled := want[id]
				if got := q.Cancel(probes[id]); got != scheduled {
					t.Fatalf("seed %d step %d: Cancel = %v, scheduled = %v", seed, step, got, scheduled)
				}
				delete(want, id)
			default:
				// At least a nanosecond: a past-due entry waits for a timer
				// armed 1ns out, never an inline expiry.
				log = log[:0]
				v.Advance(time.Duration(rng.Intn(4))*time.Second + time.Nanosecond)
				var due []int
				for id, r := range want {
					if !r.at.After(v.Now()) {
						due = append(due, id)
					}
				}
				sort.Slice(due, func(i, j int) bool {
					a, b := want[due[i]], want[due[j]]
					if !a.at.Equal(b.at) {
						return a.at.Before(b.at)
					}
					return a.seq < b.seq
				})
				if len(log) != len(due) {
					t.Fatalf("seed %d step %d: fired %v, want %v", seed, step, log, due)
				}
				for k := range due {
					if log[k] != due[k] {
						t.Fatalf("seed %d step %d: fired %v, want %v", seed, step, log, due)
					}
					delete(want, due[k])
				}
			}
			if q.Len() != len(want) {
				t.Fatalf("seed %d step %d: queue holds %d entries, want %d", seed, step, q.Len(), len(want))
			}
			if n := v.Pending(); n > 1 || (len(want) > 0 && n != 1) {
				t.Fatalf("seed %d step %d: %d clock timers pending for %d entries", seed, step, n, len(want))
			}
		}
		q.Close()
		if v.Pending() != 0 || q.Len() != 0 {
			t.Fatalf("seed %d: %d timers pending, %d entries after Close", seed, v.Pending(), q.Len())
		}
		for _, p := range probes {
			p.fired.Store(0)
		}
		q.Schedule(probes[0], v.Now().Add(time.Second))
		v.Advance(time.Hour)
		if probes[0].fired.Load() != 0 || v.Pending() != 0 {
			t.Fatalf("seed %d: a closed queue scheduled an entry", seed)
		}
	}
}

// TestQueueCancelLeavesTimerAlone pins the arm rule: the timer is
// re-armed only for an earlier head, a cancel never touches it, and a
// timer that fires with nothing due re-arms for the head.
func TestQueueCancelLeavesTimerAlone(t *testing.T) {
	v := NewVirtual(epoch)
	q := NewQueue(v)
	defer q.Close()
	a, b, c := &probe{id: 1}, &probe{id: 2}, &probe{id: 3}
	at := func(d time.Duration) time.Time { return epoch.Add(d) }
	next := func() time.Time { d, _ := v.NextDeadline(); return d }

	q.Schedule(a, at(5*time.Second))
	q.Schedule(b, at(9*time.Second)) // later than the armed instant: no re-arm
	if !next().Equal(at(5 * time.Second)) {
		t.Fatalf("armed for %v, want the head at +5s", next())
	}
	q.Cancel(a)
	if v.Pending() != 1 || !next().Equal(at(5*time.Second)) {
		t.Fatalf("cancel touched the timer: %d pending, armed for %v", v.Pending(), next())
	}
	q.Schedule(c, at(2*time.Second)) // earlier head: re-armed, still one timer
	if v.Pending() != 1 || !next().Equal(at(2*time.Second)) {
		t.Fatalf("earlier head: %d pending, armed for %v", v.Pending(), next())
	}
	q.Cancel(c)
	v.Advance(3 * time.Second) // fires at +2s, nothing due, re-arms for b
	if c.fired.Load() != 0 || v.Pending() != 1 || !next().Equal(at(9*time.Second)) {
		t.Fatalf("empty firing: c fired %d, %d pending, armed for %v", c.fired.Load(), v.Pending(), next())
	}
	v.Advance(time.Minute)
	if a.fired.Load() != 0 || b.fired.Load() != 1 || v.Pending() != 0 {
		t.Fatalf("a fired %d, b fired %d, %d pending", a.fired.Load(), b.fired.Load(), v.Pending())
	}
}

// TestQueuePastDueNeverExpiresInline is the clamp: an instant that has
// already passed must not expire inside Schedule (the caller may hold the
// lock Expire needs — the store's janitor deadlock), only on the next
// clock step.
func TestQueuePastDueNeverExpiresInline(t *testing.T) {
	v := NewVirtual(epoch)
	q := NewQueue(v)
	defer q.Close()
	p := &probe{}
	q.Schedule(p, epoch.Add(-time.Second))
	if p.fired.Load() != 0 {
		t.Fatal("a past-due entry expired inside Schedule")
	}
	v.Advance(time.Nanosecond)
	if p.fired.Load() != 1 {
		t.Fatalf("past-due entry fired %d times on the next clock step, want 1", p.fired.Load())
	}
}

// TestQueueExpireMaySchedule covers the two re-entrant uses: an Expire
// that re-schedules its own entry (accept retransmission) and one that
// schedules another (a reclaim that arms the next).
func TestQueueExpireMaySchedule(t *testing.T) {
	v := NewVirtual(epoch)
	q := NewQueue(v)
	defer q.Close()
	self, other := &probe{}, &probe{}
	self.then = func() {
		if self.fired.Load() < 3 {
			q.Schedule(self, v.Now().Add(time.Second))
		} else {
			q.Schedule(other, v.Now().Add(time.Second))
		}
	}
	q.Schedule(self, epoch.Add(time.Second))
	for s := 1; s <= 3; s++ {
		v.Advance(time.Second)
		if got := self.fired.Load(); int(got) != s {
			t.Fatalf("after %ds the self-rescheduling entry fired %d times", s, got)
		}
	}
	if other.fired.Load() != 0 {
		t.Fatal("the chained entry fired early")
	}
	v.Advance(time.Second)
	if self.fired.Load() != 3 || other.fired.Load() != 1 || q.Len() != 0 {
		t.Fatalf("self fired %d, other fired %d, %d left", self.fired.Load(), other.fired.Load(), q.Len())
	}
}

// TestQueueCancelInsideBatch: an Expire may cancel or move an entry that
// was due with it and has not run yet; that entry then does not fire from
// the batch.
func TestQueueCancelInsideBatch(t *testing.T) {
	v := NewVirtual(epoch)
	q := NewQueue(v)
	defer q.Close()
	first, dropped, moved := &probe{}, &probe{}, &probe{}
	first.then = func() {
		if !q.Cancel(dropped) {
			t.Error("Cancel of an entry awaiting its turn reported false")
		}
		q.Schedule(moved, v.Now().Add(time.Minute))
	}
	at := epoch.Add(time.Second)
	q.Schedule(first, at)
	q.Schedule(dropped, at)
	q.Schedule(moved, at)
	v.Advance(2 * time.Second)
	if first.fired.Load() != 1 || dropped.fired.Load() != 0 || moved.fired.Load() != 0 {
		t.Fatalf("first %d, dropped %d, moved %d", first.fired.Load(), dropped.fired.Load(), moved.fired.Load())
	}
	v.Advance(time.Minute)
	if moved.fired.Load() != 1 {
		t.Fatalf("moved entry fired %d times at its new instant", moved.fired.Load())
	}
}

// TestQueueScheduleCancelAllocatesNothing is the reason entries are
// intrusive.
func TestQueueScheduleCancelAllocatesNothing(t *testing.T) {
	q := NewQueue(Real{})
	defer q.Close()
	base := &probe{}
	q.Schedule(base, time.Now().Add(time.Hour)) // holds the head and the timer
	ps := make([]*probe, 64)
	for i := range ps {
		ps[i] = &probe{}
		q.Schedule(ps[i], time.Now().Add(2*time.Hour))
	}
	for _, p := range ps {
		q.Cancel(p) // the heap has grown to its steady size
	}
	at := time.Now().Add(3 * time.Hour)
	if allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range ps {
			q.Schedule(p, at)
		}
		for _, p := range ps {
			q.Cancel(p)
		}
	}); allocs != 0 {
		t.Fatalf("Schedule+Cancel on a warmed queue: %v allocs, want 0", allocs)
	}
}

// TestQueueBlockedExpireDelaysNothingLater: the queue re-arms before it
// runs a batch, so an Expire stuck on a channel (a hold reinstatement
// behind a stalled WAL, an accept retransmission into a slow socket) does
// not stop an entry due later from firing. The two are 50 ms apart, not 1:
// a timer that fires a millisecond late on a loaded machine finds both
// due and puts them in one batch, which is not the case under test.
func TestQueueBlockedExpireDelaysNothingLater(t *testing.T) {
	q := NewQueue(Real{})
	defer q.Close()
	release := make(chan struct{})
	defer close(release)
	stuck, later := &probe{}, &probe{}
	stuck.then = func() { <-release }
	fired := make(chan struct{})
	later.then = func() { close(fired) }
	now := time.Now()
	q.Schedule(stuck, now.Add(time.Millisecond))
	q.Schedule(later, now.Add(51*time.Millisecond))
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("an entry due 50ms after a blocked Expire never fired")
	}
	if stuck.fired.Load() != 1 {
		t.Fatalf("the blocked entry fired %d times", stuck.fired.Load())
	}
}

// TestQueueConcurrentExactlyOnce: 8 goroutines schedule and cancel
// against a real-clock queue that fires every millisecond; every
// scheduling ends in exactly one of "fired" and "cancelled". Run under
// -race.
func TestQueueConcurrentExactlyOnce(t *testing.T) {
	q := NewQueue(Real{})
	defer q.Close()
	const workers, rounds = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				p := &probe{}
				q.Schedule(p, time.Now().Add(time.Duration(rng.Intn(2000))*time.Microsecond))
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
				}
				cancelled := q.Cancel(p)
				if !cancelled {
					// Its Expire has begun; give it a moment to finish.
					for i := 0; i < 2000 && p.fired.Load() == 0; i++ {
						time.Sleep(time.Millisecond)
					}
				}
				if fired := p.fired.Load(); cancelled == (fired != 0) || fired > 1 {
					t.Errorf("worker %d round %d: cancelled=%v fired=%d", w, r, cancelled, fired)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Fatalf("%d entries left behind", q.Len())
	}
}
