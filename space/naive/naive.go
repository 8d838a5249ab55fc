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

type entry struct {
	id     uint64
	t      tuple.Tuple
	expiry time.Time
	held   bool
}

// waiter is parked interest in a copy (rd), a removal (in) or, when hch
// is set, a hold.
type waiter struct {
	p      tuple.Template
	remove bool
	ch     chan tuple.Tuple
	hch    chan space.Hold
	done   bool
}

// finish closes a settled waiter's channel.
func (w *waiter) finish() {
	w.done = true
	if w.hch != nil {
		close(w.hch)
		return
	}
	close(w.ch)
}

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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	// Serve waiters FIFO: readers get copies, the first in-waiter
	// consumes. Hold-waiters rank behind every in-waiter (a local in is
	// final, a hold tentative): with no consumer the oldest one is handed
	// the tuple, stored and held, and the id returned — as if Hold had run
	// right behind this Out.
	kept := s.waiters[:0]
	consumed := false
	for _, w := range s.waiters {
		if consumed || w.done || w.hch != nil || !w.p.Matches(t) {
			kept = append(kept, w)
			continue
		}
		w.ch <- t
		w.finish()
		consumed = w.remove
	}
	s.waiters = kept
	if consumed {
		return 0, nil
	}
	s.nextID++
	id := s.nextID
	e := entry{id: id, t: t, expiry: expiry}
	for i, w := range s.waiters {
		if w.hch != nil && !w.done && w.p.Matches(t) {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			e.held = true
			w.hch <- &hold{s: s, id: id, t: t}
			w.finish()
			break
		}
	}
	s.entries = append(s.entries, e)
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
	w := &waiter{p: p, remove: remove, ch: make(chan tuple.Tuple, 1)}
	return &waitHandle{s.register(w)}
}

// WaitHold implements space.Space.
func (s *Space) WaitHold(p tuple.Template) space.HoldWaiter {
	w := &waiter{p: p, hch: make(chan space.Hold, 1)}
	return &holdHandle{s.register(w)}
}

// register settles w from the first live match or parks it.
func (s *Space) register(w *waiter) handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := handle{s: s, w: w}
	if s.closed {
		w.finish()
		return h
	}
	i := s.findLocked(w.p)
	if i < 0 {
		s.waiters = append(s.waiters, w)
		return h
	}
	e := &s.entries[i]
	switch {
	case w.hch != nil:
		e.held = true
		w.hch <- &hold{s: s, id: e.id, t: e.t}
	case w.remove:
		w.ch <- e.t
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
	default:
		w.ch <- e.t
	}
	w.finish()
	return h
}

// handle cancels a parked waiter; the two wrappers expose its channel.
type handle struct {
	s *Space
	w *waiter
}

type waitHandle struct{ handle }

func (h *waitHandle) Chan() <-chan tuple.Tuple { return h.w.ch }

type holdHandle struct{ handle }

func (h *holdHandle) Chan() <-chan space.Hold { return h.w.hch }

func (h *handle) Cancel() {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if h.w.done {
		return
	}
	h.w.finish()
	for i, w := range h.s.waiters {
		if w == h.w {
			h.s.waiters = append(h.s.waiters[:i], h.s.waiters[i+1:]...)
			break
		}
	}
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
	mu      sync.Mutex
	settled bool
}

func (h *hold) Tuple() tuple.Tuple { return h.t }

func (h *hold) ID() uint64 { return h.id }

func (h *hold) Accept() { h.settle(true) }

func (h *hold) Release() { h.settle(false) }

func (h *hold) settle(accept bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.settled {
		return
	}
	h.settled = true
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
	e.held = false
	_, _ = h.s.Out(e.t, e.expiry)
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
			w.finish()
		}
	}
	s.waiters = nil
	s.entries = nil
	return nil
}
