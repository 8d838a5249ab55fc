// Package clock abstracts time so that every lease, timeout, and janitor in
// the system can run against either the wall clock or a deterministic
// virtual clock driven by tests and benchmarks.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used throughout Tiamat.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run after d and returns a stop function.
	// The stop function reports whether it prevented f from running.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
}

// Real is the wall-clock implementation.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) func() bool {
	t := time.AfterFunc(d, f)
	return t.Stop
}

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a deterministic clock. Time advances only when Advance or
// AdvanceTo is called; all timers due at or before the new time fire, in
// deadline order, on the calling goroutine's watch (callbacks run
// synchronously inside Advance, channel timers are delivered without
// blocking).
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    uint64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

type vtimer struct {
	at      time.Time
	seq     uint64 // FIFO tiebreak among equal deadlines
	ch      chan time.Time
	f       func()
	stopped bool
	index   int
}

type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.push(&vtimer{at: v.now.Add(d), ch: ch})
	return ch
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) func() bool {
	v.mu.Lock()
	if d <= 0 {
		v.mu.Unlock()
		f()
		return func() bool { return false }
	}
	t := &vtimer{at: v.now.Add(d), f: f}
	v.push(t)
	v.mu.Unlock()
	return func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if t.stopped {
			return false
		}
		t.stopped = true
		if t.index >= 0 && t.index < len(v.timers) && v.timers[t.index] == t {
			heap.Remove(&v.timers, t.index)
		}
		return true
	}
}

// Sleep blocks until the virtual clock is advanced past d by another
// goroutine. Tests that drive the clock from the same goroutine should use
// After/Advance instead.
func (v *Virtual) Sleep(d time.Duration) { <-v.After(d) }

func (v *Virtual) push(t *vtimer) {
	t.seq = v.seq
	v.seq++
	heap.Push(&v.timers, t)
}

// Advance moves the clock forward by d, firing all timers that become due.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// AdvanceTo moves the clock to target (no-op if target is in the past),
// firing due timers in deadline order. Callback timers run without the lock
// held so they may schedule further timers.
func (v *Virtual) AdvanceTo(target time.Time) {
	for {
		v.mu.Lock()
		if len(v.timers) == 0 || v.timers[0].at.After(target) {
			if target.After(v.now) {
				v.now = target
			}
			v.mu.Unlock()
			return
		}
		t := heap.Pop(&v.timers).(*vtimer)
		if t.stopped {
			v.mu.Unlock()
			continue
		}
		t.stopped = true
		if t.at.After(v.now) {
			v.now = t.at
		}
		now := v.now
		v.mu.Unlock()
		if t.ch != nil {
			t.ch <- now
		}
		if t.f != nil {
			t.f()
		}
	}
}

// Pending reports the number of timers that have not yet fired.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, t := range v.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// NextDeadline returns the earliest pending timer deadline and whether one
// exists. Experiment drivers use it to step virtual time efficiently.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) == 0 {
		return time.Time{}, false
	}
	return v.timers[0].at, true
}
