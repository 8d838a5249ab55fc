// Package clock abstracts time so that every lease, timeout, and janitor in
// the system can run against either the wall clock or a deterministic
// virtual clock driven by tests and benchmarks. A timer is a callback
// (AfterFunc): there is no channel timer, so whoever owns a deadline owns
// the goroutine-free code that runs at it, and a virtual clock runs every
// one of them inside Advance.
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

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) func() bool {
	t := time.AfterFunc(d, f)
	return t.Stop
}

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a deterministic clock. Time advances only when Advance or
// AdvanceTo is called; all timers due at or before the new time fire, in
// deadline order, synchronously inside Advance on the calling goroutine.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	epoch  time.Time    // the start: a timer's instant is kept as an offset from it
	timers deadlineHeap // FIFO among equal deadlines, as on a Queue
	seq    uint64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start, epoch: start}
}

// vtimer is an AfterFunc callback, an entry on the clock's own heap.
type vtimer struct {
	Deadline
	f func()
}

func (t *vtimer) Expire() { t.f() }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) func() bool {
	v.mu.Lock()
	if d <= 0 {
		v.mu.Unlock()
		f()
		return func() bool { return false }
	}
	t := &vtimer{f: f}
	v.seq++
	t.when, t.seq, t.owner = int64(v.now.Add(d).Sub(v.epoch)), v.seq, t
	heap.Push(&v.timers, &t.Deadline)
	v.mu.Unlock()
	return func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if t.pos == 0 {
			return false // stopped or fired
		}
		heap.Remove(&v.timers, t.pos-1)
		return true
	}
}

// Sleep blocks until the virtual clock is advanced past d by another
// goroutine. Tests that drive the clock from the same goroutine should use
// AfterFunc/Advance instead.
func (v *Virtual) Sleep(d time.Duration) {
	done := make(chan struct{})
	v.AfterFunc(d, func() { close(done) })
	<-done
}

// Advance moves the clock forward by d, firing all timers that become due.
func (v *Virtual) Advance(d time.Duration) { v.AdvanceTo(v.Now().Add(d)) }

// AdvanceTo moves the clock to target (no-op if target is in the past),
// firing due timers in deadline order. Callback timers run without the lock
// held so they may schedule further timers.
func (v *Virtual) AdvanceTo(target time.Time) {
	for {
		v.mu.Lock()
		if len(v.timers) == 0 || v.timers[0].when > int64(target.Sub(v.epoch)) {
			if target.After(v.now) {
				v.now = target
			}
			v.mu.Unlock()
			return
		}
		d := heap.Pop(&v.timers).(*Deadline) // fired: its stop no longer prevents anything
		if at := v.epoch.Add(time.Duration(d.when)); at.After(v.now) {
			v.now = at
		}
		v.mu.Unlock()
		d.owner.Expire()
	}
}

// Pending reports the number of timers that have neither fired nor been
// stopped.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// NextDeadline returns the earliest pending timer deadline and whether one
// exists. Experiment drivers use it to step virtual time efficiently.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) == 0 {
		return time.Time{}, false
	}
	return v.epoch.Add(time.Duration(v.timers[0].when)), true
}
