package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Entry is something a Queue can expire: a struct that embeds a Deadline
// (which supplies the unexported half of this interface) and has an
// Expire method. Entries are scheduled by pointer and must not be copied
// while scheduled.
type Entry interface {
	// Expire runs once the entry's instant has passed, with no queue lock
	// held: it may block, and may schedule or cancel any entry, its own
	// included.
	Expire()
	deadline() *Deadline
}

// Deadline is a Queue's bookkeeping for one entry, embedded in the struct
// that owns the deadline: scheduling links the owner itself into the
// queue, so it allocates nothing. The zero value is unscheduled.
type Deadline struct {
	when  int64  // nanoseconds after the queue's epoch
	seq   uint64 // schedule order, the tiebreak among equal instants
	pos   int    // heap index + 1; 0 unscheduled; posDue while awaiting Expire
	owner Entry
}

// posDue marks an entry a firing has collected but not yet expired: it is
// out of the heap, and a Cancel or Schedule can still claim it back.
const posDue = -1

func (d *Deadline) deadline() *Deadline { return d }

// Queue runs any number of deadlines off one clock timer (DESIGN.md §7):
// a position-indexed min-heap of intrusive entries, so Schedule and
// Cancel are O(log n), allocate nothing and leave no stale entry behind.
//
// The timer is re-armed only when a new head is earlier than the instant
// it is armed for. Cancel never touches it: a timer whose entry is gone
// fires, finds nothing due and re-arms for the head — one wake-up per
// armed instant however many entries came and went under it.
//
// Due entries expire synchronously, in deadline order (ties in schedule
// order), on the goroutine the clock fired the timer on — inside Advance
// on a Virtual clock, so tests stay deterministic. The timer is re-armed
// before the batch runs: an Expire that blocks delays only the entries
// due with it, never a later one. A Queue is also the Clock it is timed
// by, so whoever is handed it as a clock can schedule on it (QueueOf).
type Queue struct {
	Clock
	epoch time.Time

	mu      sync.Mutex
	heap    deadlineHeap
	seq     uint64
	stop    func() bool // stops the armed timer; nil when none is pending
	armedAt int64       // instant the pending timer fires; ≤ every scheduled instant
	closed  bool
}

// NewQueue returns an empty queue timed by clk.
func NewQueue(clk Clock) *Queue { return &Queue{Clock: clk, epoch: clk.Now()} }

// QueueOf returns c when it is a Queue, so that every part handed one
// node's queue shares its one timer, and otherwise a new queue timed by c.
func QueueOf(c Clock) *Queue {
	if q, ok := c.(*Queue); ok {
		return q
	}
	return NewQueue(c)
}

// Schedule sets e to expire at the given instant, moving it if it is
// already scheduled. An instant that has passed expires on the next timer
// firing, never inside Schedule: callers may hold their own locks. On a
// closed queue it does nothing.
func (q *Queue) Schedule(e Entry, at time.Time) {
	d := e.deadline()
	when := int64(at.Sub(q.epoch))
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.seq++
	d.when, d.seq, d.owner = when, q.seq, e
	if d.pos > 0 {
		heap.Fix(&q.heap, d.pos-1)
	} else {
		heap.Push(&q.heap, d)
	}
	if q.stop == nil || q.heap[0].when < q.armedAt {
		q.armLocked(q.now())
	}
}

// Cancel unschedules e and reports whether that prevented its Expire:
// false means e was not scheduled, or its Expire has already begun.
func (q *Queue) Cancel(e Entry) bool {
	d := e.deadline()
	q.mu.Lock()
	defer q.mu.Unlock()
	if d.pos == 0 {
		return false
	}
	if d.pos > 0 {
		heap.Remove(&q.heap, d.pos-1)
	}
	d.pos = 0 // also claims back an entry awaiting its turn (posDue)
	return true
}

// Len reports how many entries are scheduled.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// Close unschedules every entry and stops the timer. No Expire begins
// after Close returns; one already running is not waited for.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, d := range q.heap {
		d.pos = 0
	}
	q.heap = nil
	if q.stop != nil {
		q.stop()
		q.stop = nil
	}
}

func (q *Queue) now() int64 { return int64(q.Clock.Now().Sub(q.epoch)) }

// armLocked points the timer at the head. The delay is clamped above zero
// so a virtual clock, which runs a zero-delay callback inline, never
// expires an entry under whatever locks the scheduling caller holds.
func (q *Queue) armLocked(now int64) {
	if q.stop != nil {
		q.stop()
	}
	q.armedAt = q.heap[0].when
	delay := time.Duration(q.armedAt - now)
	if delay <= 0 {
		delay = time.Nanosecond
	}
	q.stop = q.Clock.AfterFunc(delay, q.fire)
}

// fire is the timer callback: collect what is due, re-arm, then expire
// the collected entries in order.
func (q *Queue) fire() {
	q.mu.Lock()
	now := q.now()
	if q.closed || (q.stop != nil && now < q.armedAt) {
		// Closed, or a superseded timer whose stop came too late: the
		// pending one still covers every entry.
		q.mu.Unlock()
		return
	}
	q.stop = nil
	var batch []*Deadline
	for len(q.heap) > 0 && q.heap[0].when <= now {
		d := heap.Pop(&q.heap).(*Deadline)
		d.pos = posDue
		batch = append(batch, d)
	}
	if len(q.heap) > 0 {
		q.armLocked(now)
	}
	q.mu.Unlock()

	for _, d := range batch {
		q.mu.Lock()
		if d.pos != posDue || q.closed {
			q.mu.Unlock()
			continue // cancelled or re-scheduled since it was collected
		}
		d.pos = 0
		e := d.owner
		q.mu.Unlock()
		e.Expire()
	}
}

// deadlineHeap is a container/heap of scheduled deadlines, earliest
// instant first and schedule order among equals, each knowing its index.
type deadlineHeap []*Deadline

func (h deadlineHeap) Len() int { return len(h) }
func (h deadlineHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h deadlineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i+1, j+1
}
func (h *deadlineHeap) Push(x any) {
	d := x.(*Deadline)
	*h = append(*h, d)
	d.pos = len(*h)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old) - 1
	d := old[n]
	old[n] = nil
	*h = old[:n]
	d.pos = 0
	return d
}
