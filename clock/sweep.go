package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sweep is a periodic pass run as an entry on a Queue, not on a goroutine
// of its own (DESIGN.md §7). Passes of one sweep never overlap. The
// queue's Close ends the sweep, but a pass already running finishes after
// it.
type Sweep struct {
	Deadline
	q      *Queue
	pass   func()
	mu     sync.Mutex   // held through a pass
	period atomic.Int64 // nanoseconds
}

// NewSweep returns a sweep of pass on q, which SetPeriod starts: each
// pass runs a period after the last one ended. A pass recovers its own
// panics; its sweep goes on either way.
func NewSweep(q *Queue, pass func()) *Sweep { return &Sweep{q: q, pass: pass} }

// Expire implements Entry: one pass, then the next is scheduled. A firing
// that finds a pass running (Run) waits for it.
func (s *Sweep) Expire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.next()
	s.pass()
}

// Run runs one pass now, after any pass under way.
func (s *Sweep) Run() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pass()
}

// Period reports the interval between passes.
func (s *Sweep) Period() time.Duration { return time.Duration(s.period.Load()) }

// SetPeriod gives the sweep a new period and runs it next one period from
// now: how a test hurries a sweep, or keeps one out of its way.
func (s *Sweep) SetPeriod(period time.Duration) {
	s.period.Store(int64(period))
	s.next()
}

func (s *Sweep) next() { s.q.Schedule(s, s.q.Now().Add(s.Period())) }
