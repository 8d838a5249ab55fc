// Package naive is a deliberately simple reference implementation of
// space.Space: a flat slice scanned linearly, with none of the indexing,
// heaps, or janitor machinery of tiamat/internal/store. It exists to
//
//   - prove the paper's §3.1.2 replaceability claim (the instance runs
//     unchanged on any Space implementation — pass one via Config.Space);
//   - serve as the executable specification that the optimised store is
//     differential-tested against.
//
// It is correct and concurrency-safe but O(n) everywhere; do not use it
// for large spaces.
package naive

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/space"
	"tiamat/tuple"
)

// ErrClosed reports an operation on a closed space.
var ErrClosed = errors.New("naive: closed")

// Space implements space.Space with linear scans.
type Space struct {
	clk clock.Clock

	mu      sync.Mutex
	closed  bool
	nextID  uint64
	entries []entry
	waiters []*waiter
}

var _ space.Space = (*Space)(nil)
var _ space.NonBlocking = (*Space)(nil)

type entry struct {
	id     uint64
	t      tuple.Tuple
	expiry time.Time
	held   bool
}

// waiter is parked interest in a copy or, with remove set, a removal,
// delivered on ch (Wait) or by a call to sink (Park), where a removal is
// handed over as a hold. It is its own handle. done and cancelled are
// guarded by the space's mutex.
type waiter struct {
	s         *Space
	p         tuple.Template
	remove    bool
	ch        chan tuple.Tuple
	sink      space.Sink
	done      bool
	cancelled bool
}

// finish settles a waiter; a channel waiter's channel closes.
func (w *waiter) finish() {
	w.done = true
	if w.ch != nil {
		close(w.ch)
	}
}

// holds reports whether w is a parked taker: delivery hands it a hold.
func (w *waiter) holds() bool { return w.remove && w.sink != nil }

// delivery is a sink call owed once the space's mutex is dropped.
type delivery struct {
	sink space.Sink
	t    tuple.Tuple
	h    space.Hold
}

func (d delivery) run() { d.sink.Deliver(d.t, d.h) }

// New returns an empty naive space using clk (nil = wall clock).
func New(clk clock.Clock) *Space {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Space{clk: clk}
}

func (s *Space) liveLocked(e entry) bool {
	if e.held {
		return false
	}
	return e.expiry.IsZero() || e.expiry.After(s.clk.Now())
}

// Out implements space.Space.
func (s *Space) Out(t tuple.Tuple, expiry time.Time) (uint64, error) {
	return s.put(t, expiry, 0)
}

// put is Out, under a new id or — for a released hold's tuple, which
// comes back as the entry it was — under the id it had.
func (s *Space) put(t tuple.Tuple, expiry time.Time, id uint64) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	// Serve waiters FIFO: readers get copies, the first in-waiter
	// consumes. Parked takers rank behind every in-waiter (a local in is
	// final, a hold tentative): with no consumer the oldest one is handed
	// the tuple, stored and held, and the id returned — as if Hold had run
	// right behind this Out. Sinks are called once the mutex is dropped.
	var calls []delivery
	kept := s.waiters[:0]
	consumed := false
	for _, w := range s.waiters {
		if consumed || w.done || w.holds() || !w.p.Matches(t) {
			kept = append(kept, w)
			continue
		}
		if w.sink != nil {
			calls = append(calls, delivery{sink: w.sink, t: t})
		} else {
			w.ch <- t
		}
		w.finish()
		consumed = w.remove
	}
	s.waiters = kept
	if consumed {
		id = 0
	} else {
		if id == 0 {
			s.nextID++
			id = s.nextID
		}
		e := entry{id: id, t: t, expiry: expiry}
		for i, w := range s.waiters {
			if w.holds() && !w.done && w.p.Matches(t) {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				e.held = true
				calls = append(calls, delivery{w.sink, t, &hold{s: s, id: id, t: t}})
				w.finish()
				break
			}
		}
		s.entries = append(s.entries, e)
	}
	s.mu.Unlock()
	for _, d := range calls {
		d.run()
	}
	return id, nil
}

// findLocked returns the index of the first live match, or -1. "First"
// in insertion order is a legal nondeterministic choice.
func (s *Space) findLocked(p tuple.Template) int {
	for i, e := range s.entries {
		if s.liveLocked(e) && p.Matches(e.t) {
			return i
		}
	}
	return -1
}

// Rdp implements space.Space.
func (s *Space) Rdp(p tuple.Template) (tuple.Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.findLocked(p); i >= 0 {
		return s.entries[i].t, true
	}
	return tuple.Tuple{}, false
}

// Inp implements space.Space.
func (s *Space) Inp(p tuple.Template) (tuple.Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.findLocked(p)
	if i < 0 {
		return tuple.Tuple{}, false
	}
	t := s.entries[i].t
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	return t, true
}

// Wait implements space.Space.
func (s *Space) Wait(p tuple.Template, remove bool) space.Waiter {
	w := &waiter{s: s, p: p, remove: remove, ch: make(chan tuple.Tuple, 1)}
	s.register(w)
	return w
}

// Park implements space.Space.
func (s *Space) Park(p tuple.Template, take bool, sink space.Sink) space.Parked {
	w := &waiter{s: s, p: p, remove: take, sink: sink}
	if d, ok := s.register(w); ok {
		d.run()
	}
	return w
}

// register settles w from the first live match or parks it. A call-mode
// waiter's delivery is returned for the caller to run unlocked.
func (s *Space) register(w *waiter) (delivery, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		w.cancelled = true
		w.finish()
		return delivery{}, false
	}
	i := s.findLocked(w.p)
	if i < 0 {
		s.waiters = append(s.waiters, w)
		return delivery{}, false
	}
	e := &s.entries[i]
	d := delivery{sink: w.sink, t: e.t}
	switch {
	case w.holds():
		e.held = true
		d.h = &hold{s: s, id: e.id, t: e.t}
	case w.remove:
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
	}
	if w.ch != nil {
		w.ch <- d.t
	}
	w.finish()
	return d, w.sink != nil
}

// Chan implements space.Waiter.
func (w *waiter) Chan() <-chan tuple.Tuple { return w.ch }

// Cancel implements space.Waiter and space.Parked.
func (w *waiter) Cancel() bool {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.done {
		return w.cancelled
	}
	w.cancelled = true
	w.finish()
	for i, o := range s.waiters {
		if o == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	return true
}

// Hold implements space.Space.
func (s *Space) Hold(p tuple.Template) (space.Hold, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.findLocked(p)
	if i < 0 {
		return nil, false
	}
	s.entries[i].held = true
	return &hold{s: s, id: s.entries[i].id, t: s.entries[i].t}, true
}

type hold struct {
	s       *Space
	id      uint64
	t       tuple.Tuple
	settled atomic.Bool
}

func (h *hold) Tuple() tuple.Tuple { return h.t }

func (h *hold) ID() uint64 { return h.id }

func (h *hold) Accept() { h.settle(true) }

func (h *hold) Release() { h.settle(false) }

func (h *hold) settle(accept bool) {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	h.s.mu.Lock()
	idx := -1
	var e entry
	for i := range h.s.entries {
		if h.s.entries[i].id == h.id {
			idx = i
			e = h.s.entries[i]
			break
		}
	}
	if idx < 0 {
		h.s.mu.Unlock()
		return
	}
	h.s.entries = append(h.s.entries[:idx], h.s.entries[idx+1:]...)
	h.s.mu.Unlock()
	if accept {
		return
	}
	// Reinstatement re-enters through Out so waiters are served.
	_, _ = h.s.put(e.t, e.expiry, e.id)
}

// Remove implements space.Space.
func (s *Space) Remove(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.entries {
		if s.entries[i].id == id && !s.entries[i].held {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Count implements space.Space. Expired tuples are purged lazily here.
func (s *Space) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	n := 0
	for _, e := range s.entries {
		if !e.held {
			n++
		}
	}
	return n
}

func (s *Space) purgeLocked() {
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e.held || s.liveLocked(e) {
			kept = append(kept, e)
		}
	}
	s.entries = kept
}

// Bytes implements space.Space.
func (s *Space) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	var n int64
	for _, e := range s.entries {
		if !e.held {
			n += e.t.Size()
		}
	}
	return n
}

// Snapshot implements space.Space.
func (s *Space) Snapshot() []tuple.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked()
	out := make([]tuple.Tuple, 0, len(s.entries))
	for _, e := range s.entries {
		if !e.held {
			out = append(out, e.t)
		}
	}
	return out
}

// NeverBlocks implements space.NonBlocking: every call holds the one
// mutex only for its own scan.
func (s *Space) NeverBlocks() bool { return true }

// Close implements space.Space.
func (s *Space) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, w := range s.waiters {
		if !w.done {
			w.cancelled = true // no sink is called
			w.finish()
		}
	}
	s.waiters = nil
	s.entries = nil
	return nil
}
