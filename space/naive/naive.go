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
	clk      clock.Clock
	onRemove func(e space.Entry) // the removal report, called by unlock

	mu      sync.Mutex
	closed  bool
	nextID  uint64
	entries []entry
	waiters []*waiter
	gone    []space.Entry // removed under mu, reported by unlock
}

var _ space.Space = (*Space)(nil)
var _ space.NonBlocking = (*Space)(nil)

type entry struct {
	id     uint64
	t      tuple.Tuple
	expiry time.Time
	held   bool
}

// waiter is a parked registration, delivered by a call to sink: a copy
// for a Read, a hold for a Take or a Claim. It is its own handle. done
// and cancelled are guarded by the space's mutex.
type waiter struct {
	s         *Space
	p         tuple.Template
	kind      space.Kind
	sink      space.Sink
	done      bool
	cancelled bool
}

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
	return &Space{clk: clk, onRemove: func(space.Entry) {}}
}

// OnRemove implements space.Space.
func (s *Space) OnRemove(f func(e space.Entry)) { s.onRemove = f }

// unlock drops the mutex, then reports the removals made under it.
func (s *Space) unlock() {
	gone := s.gone
	s.gone = nil
	s.mu.Unlock()
	for _, e := range gone {
		s.onRemove(e)
	}
}

// removeLocked drops entry i, a final removal.
func (s *Space) removeLocked(i int) {
	e := s.entries[i]
	s.gone = append(s.gone, space.Entry{ID: e.id, Size: e.t.Size(), Expiry: e.expiry})
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
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
	if id == 0 {
		s.nextID++
		id = s.nextID
	}
	// Serve registrations FIFO: Reads get copies until a Take has the
	// tuple. Claims rank behind every Take (a local in accepts at once, a
	// peer's hold is tentative): with no Take the oldest Claim has it. A
	// taken tuple is stored and held, and its id returned — as if Hold had
	// run right behind this Out. Sinks are called once the mutex is
	// dropped, readers first.
	var calls []delivery
	var taker *waiter
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if taker != nil || w.done || w.kind == space.Claim || !w.p.Matches(t) {
			kept = append(kept, w)
			continue
		}
		w.done = true
		if w.kind == space.Take {
			taker = w
		} else {
			calls = append(calls, delivery{sink: w.sink, t: t})
		}
	}
	s.waiters = kept
	for i := 0; taker == nil && i < len(s.waiters); i++ {
		if w := s.waiters[i]; w.kind == space.Claim && !w.done && w.p.Matches(t) {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			w.done = true
			taker = w
		}
	}
	e := entry{id: id, t: t, expiry: expiry}
	if taker != nil {
		e.held = true
		calls = append(calls, delivery{taker.sink, t, &hold{s: s, id: id, t: t}})
	}
	s.entries = append(s.entries, e)
	s.purgeLocked()
	s.unlock()
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
	defer s.unlock()
	i := s.findLocked(p)
	if i < 0 {
		return tuple.Tuple{}, false
	}
	t := s.entries[i].t
	s.removeLocked(i)
	return t, true
}

// Park implements space.Space: it settles the registration from the first
// live match, calling sink once the mutex is dropped, or parks it.
func (s *Space) Park(p tuple.Template, kind space.Kind, sink space.Sink) space.Parked {
	w := &waiter{s: s, p: p, kind: kind, sink: sink}
	s.mu.Lock()
	if s.closed {
		w.done, w.cancelled = true, true
		s.mu.Unlock()
		return w
	}
	i := s.findLocked(p)
	if i < 0 {
		s.waiters = append(s.waiters, w)
		s.mu.Unlock()
		return w
	}
	e := &s.entries[i]
	d := delivery{sink: sink, t: e.t}
	if kind != space.Read {
		e.held = true
		d.h = &hold{s: s, id: e.id, t: e.t}
	}
	w.done = true
	s.mu.Unlock()
	d.run()
	return w
}

// Cancel implements space.Parked.
func (w *waiter) Cancel() bool {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.done {
		return w.cancelled
	}
	w.done, w.cancelled = true, true
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
	if accept {
		h.s.removeLocked(idx)
		h.s.unlock()
		return
	}
	h.s.entries = append(h.s.entries[:idx], h.s.entries[idx+1:]...)
	h.s.mu.Unlock()
	// Reinstatement re-enters through Out so waiters are served.
	_, _ = h.s.put(e.t, e.expiry, e.id)
}

// Remove implements space.Space.
func (s *Space) Remove(id uint64) (tuple.Tuple, bool) {
	s.mu.Lock()
	defer s.unlock()
	for i := range s.entries {
		if e := s.entries[i]; e.id == id && !e.held {
			s.removeLocked(i)
			return e.t, true
		}
	}
	return tuple.Tuple{}, false
}

// Count implements space.Space.
func (s *Space) Count() int { return len(s.Snapshot()) }

// Leases implements space.Space.
func (s *Space) Leases() (n int, bytes int64, soonest space.Entry, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.expiry.IsZero() || !s.liveLocked(e) {
			continue
		}
		if n++; !ok || e.expiry.Before(soonest.Expiry) {
			soonest, ok = space.Entry{ID: e.id, Size: e.t.Size(), Expiry: e.expiry}, true
		}
		bytes += e.t.Size()
	}
	return n, bytes, soonest, ok
}

// purgeLocked drops expired tuples, lazily: here and at every Out.
func (s *Space) purgeLocked() {
	for i := len(s.entries) - 1; i >= 0; i-- {
		if !s.entries[i].held && !s.liveLocked(s.entries[i]) {
			s.removeLocked(i)
		}
	}
}

// Bytes implements space.Space.
func (s *Space) Bytes() int64 {
	var n int64
	for _, t := range s.Snapshot() {
		n += t.Size()
	}
	return n
}

// Snapshot implements space.Space.
func (s *Space) Snapshot() []tuple.Tuple {
	s.mu.Lock()
	defer s.unlock()
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
			w.done, w.cancelled = true, true // no sink is called
		}
	}
	s.waiters = nil
	s.entries = nil
	return nil
}
