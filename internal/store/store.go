// Package store is the default local tuple space (paper §3.1.2): a
// lease-aware, sharded, concurrency-safe implementation of the
// space.Space contract with parked registrations, tentative holds for the
// distributed take protocol, and a janitor that reclaims tuples whose out
// leases have expired: each shard keeps its tuples' expiries in a heap and
// is itself one entry, at the earliest of them, on the store's one
// deadline queue.
//
// # Sharding
//
// The space is partitioned into shards so that concurrent operations on
// disjoint tag classes never contend on one lock. A tuple whose first
// field is a string (the conventional type tag) lives in the shard chosen
// by hashing its (arity, tag) key; every other tuple lives in a dedicated
// scan shard. Template routing follows the matching rules:
//
//   - first field is an actual string  → exactly one tag shard
//   - first field is an actual non-string, or arity 0 → the scan shard
//     (a string-lead tuple can never match such a template)
//   - first field is a formal/Any      → all shards
//
// Blocking waiters are indexed by (arity, tag) within their shard, so an
// Out wakes only plausible matches instead of scanning every same-arity
// waiter. Waiters for formal-lead templates go on a small global list
// consulted by every Out; an atomic counter lets the common case (no such
// waiter) skip the global lock entirely. Wildcard registration is made
// race-free by registering first and scanning the shards second: an Out
// that misses the registration stores its tuple before the scan can
// reach that shard's lock, and an Out that sees it delivers directly —
// settlement is a per-waiter CAS, so the two paths cannot double-serve.
//
// Every registration (Park) is settled by a call to its sink, made by the
// Out itself once it has dropped its locks. An Out that no Take took
// hands its tuple to the oldest matching Claim as a hold and leaves the
// rest parked: one call per tuple, however many peers wait, and no
// goroutine parked for any of them.
package store

import (
	"container/heap"
	"errors"
	"hash/maphash"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/tuple"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Store implements space.Space.
type Store struct {
	clk  clock.Clock
	met  *trace.Metrics // WithMetrics; New resolves ctr on it
	ctr  counters
	seed int64
	// janitor times every shard's reclaim off one clock timer; never
	// closed here, as it may be the node's (WithClock).
	janitor *clock.Queue
	// onRemove is the removal report (OnRemove), called with no shard
	// lock held. Atomic: the janitor may reclaim while it is set.
	onRemove atomic.Pointer[func(e space.Entry)]

	// nTagShards is the number of tag shards (a power of two); the shard
	// slice additionally holds the scan shard at index nTagShards.
	nTagShards int
	shardBits  uint // low bits of a storage id carrying the shard index
	shards     []*shard

	closed     atomic.Bool
	waiterSeq  atomic.Uint64 // FIFO ordering across shard and global lists
	scanCursor atomic.Uint64 // rotates the start shard of wildcard scans

	// Global waiters: blocking templates whose first field is a formal,
	// which can match tuples in any shard. nGlobal lets Out skip the
	// global lock when the list is empty (the common case).
	gmu      sync.Mutex
	gwaiters []*waiter
	nGlobal  atomic.Int64
}

var _ space.Space = (*Store)(nil)
var _ space.NonBlocking = (*Store)(nil)

// shard is one independently locked partition of the space.
type shard struct {
	st  *Store
	idx uint64

	mu      sync.Mutex
	rng     *rand.Rand
	closed  bool
	nextSeq uint64 // per-shard entry counter; id = seq<<shardBits | idx
	bytes   int64  // live footprint, maintained incrementally
	byID    map[uint64]*entry
	byArity map[int]map[uint64]*entry
	byTag   map[tagKey]map[uint64]*entry
	// waiters indexes blocking interest by (arity, tag). Tag shards key
	// by the full tag; the scan shard keys by arity alone (tag "").
	waiters map[tagKey][]*waiter
	expiry  expiryHeap
	// The shard is the janitor's queue entry. reclaimAt is the instant it
	// is scheduled for, never later than the heap's head; zero when it is
	// not scheduled. Removing the head leaves it be: the early firing
	// finds nothing expired and re-schedules for the head of the day.
	clock.Deadline
	reclaimAt time.Time
}

// tagKey identifies a (arity, leading string tag) index bucket.
type tagKey struct {
	arity int
	tag   string
}

var tagHashSeed = maphash.MakeSeed()

// shardOf maps a tag key to its tag shard index.
func (s *Store) shardOf(tk tagKey) *shard {
	var h maphash.Hash
	h.SetSeed(tagHashSeed)
	_, _ = h.WriteString(tk.tag)
	_ = h.WriteByte(byte(tk.arity))
	return s.shards[h.Sum64()&uint64(s.nTagShards-1)]
}

// scanShard returns the shard holding every tuple without a string tag.
func (s *Store) scanShard() *shard { return s.shards[s.nTagShards] }

// tagOfTuple returns the index key for a tuple, if it has one.
func tagOfTuple(t tuple.Tuple) (tagKey, bool) {
	if t.Arity() == 0 {
		return tagKey{}, false
	}
	f, err := t.Field(0)
	if err != nil {
		return tagKey{}, false
	}
	s, ok := f.StringValue()
	if !ok {
		return tagKey{}, false
	}
	return tagKey{arity: t.Arity(), tag: s}, true
}

// tagOfTemplate returns the index key a template can be served from: its
// first field must be an actual string.
func tagOfTemplate(p tuple.Template) (tagKey, bool) {
	if p.Arity() == 0 {
		return tagKey{}, false
	}
	f, err := p.Field(0)
	if err != nil {
		return tagKey{}, false
	}
	s, ok := f.StringValue()
	if !ok {
		return tagKey{}, false
	}
	return tagKey{arity: p.Arity(), tag: s}, true
}

// Template routing classes (see package doc).
const (
	classPinned = iota // one tag shard
	classScan          // the scan shard only
	classGlobal        // all shards
)

// classify routes a template: the bucket key it waits under (pinned and
// scan classes) and which shards its matches can live in.
func classify(p tuple.Template) (tagKey, int) {
	if p.Arity() == 0 {
		return tagKey{}, classScan
	}
	f, err := p.Field(0)
	if err != nil {
		return tagKey{}, classScan
	}
	if f.Formal() {
		return tagKey{}, classGlobal
	}
	if s, ok := f.StringValue(); ok {
		return tagKey{arity: p.Arity(), tag: s}, classPinned
	}
	// Actual non-string lead: only scan-shard tuples can match.
	return tagKey{arity: p.Arity()}, classScan
}

// waiterKeyOfTuple is the bucket an Out of t must wake: the tuple's tag
// key in a tag shard, the arity-only key in the scan shard.
func waiterKeyOfTuple(t tuple.Tuple) (tagKey, *shard, bool) {
	if tk, ok := tagOfTuple(t); ok {
		return tk, nil, true
	}
	return tagKey{arity: t.Arity()}, nil, false
}

// entry is a stored tuple and, once unlinked for a taker, its hold: the
// first of Accept and Release settles it, with no lock held, since a
// release re-enters Out, which may run a sink. Release reinstates a fresh
// entry under the same id, so a stale handle stays settled.
type entry struct {
	s       *Store
	id      uint64
	t       tuple.Tuple
	size    int64     // cached t.Size() for byte accounting
	expiry  time.Time // zero = never
	index   int32     // position in expiry heap, -1 if absent; int32 so the entry fits 80 B
	settled atomic.Bool
}

// waiter is a one-shot Park registration: its sink is called with a copy
// of a match (Read) or with the entry as a hold (Take, Claim). state
// settles the race between delivery (an Out or the waiter's own
// registration scan) and Cancel: exactly one of them moves it off parked.
// The waiter is its own handle: it records where it is parked, which is
// what Cancel has to undo.
type waiter struct {
	seq   uint64
	p     tuple.Template
	kind  space.Kind
	sink  space.Sink
	state atomic.Uint32

	s      *Store
	sh     *shard // set while parked in a shard bucket
	key    tagKey
	global bool // set while parked on the global list
}

var _ space.Parked = (*waiter)(nil)

// Waiter states.
const (
	parked uint32 = iota
	delivered
	cancelled
)

// claim reports whether the caller won this waiter for a delivery.
func (w *waiter) claim() bool { return w.state.CompareAndSwap(parked, delivered) }

// withdraw reports whether the caller won this waiter for no delivery at
// all (Cancel, Close).
func (w *waiter) withdraw() bool { return w.state.CompareAndSwap(parked, cancelled) }

// call settles a claimed waiter with e, which the caller has unlinked (or
// never linked) unless w only reads. It runs the sink and so must be
// called with no lock held.
func (w *waiter) call(e *entry) {
	if w.kind == space.Read {
		w.sink.Deliver(e.t, nil)
		return
	}
	w.sink.Deliver(e.t, e)
}

// Option configures a Store.
type Option func(*Store)

// WithClock sets the time source (default: wall clock). A clock.Queue
// handed as c is scheduled on, rather than a queue of the store's own.
func WithClock(c clock.Clock) Option { return func(s *Store) { s.clk = c } }

// WithMetrics attaches a metrics registry.
func WithMetrics(m *trace.Metrics) Option { return func(s *Store) { s.met = m } }

// WithSeed seeds the nondeterministic match selectors (default 1).
func WithSeed(seed int64) Option {
	return func(s *Store) { s.seed = seed }
}

// WithShards sets the number of tag shards, rounded up to a power of two
// and clamped to [1, 256]. The default scales with GOMAXPROCS. One extra
// scan shard always exists for untagged tuples, so WithShards(1) is the
// two-lock near-equivalent of the historical single-mutex store.
func WithShards(n int) Option {
	return func(s *Store) { s.nTagShards = n }
}

// OnRemove implements space.Space.
func (s *Store) OnRemove(f func(e space.Entry)) { s.onRemove.Store(&f) }

// notifyRemoved makes the removal report outside all shard locks.
func (s *Store) notifyRemoved(es ...*entry) {
	if f := s.onRemove.Load(); f != nil {
		for _, e := range es {
			(*f)(space.Entry{ID: e.id, Size: e.size, Expiry: e.expiry})
		}
	}
}

// defaultShards scales the tag-shard count with available parallelism.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	return n
}

// counters are the store's counter handles (trace.Metrics.Counter).
type counters struct {
	stored, taken, reinstated, reclaimed *trace.Counter
}

// New returns an empty Store.
func New(opts ...Option) *Store {
	s := &Store{
		clk:  clock.Real{},
		met:  &trace.Metrics{},
		seed: 1,
	}
	for _, o := range opts {
		o(s)
	}
	s.ctr = counters{
		stored:     s.met.Counter(trace.CtrTuplesStored),
		taken:      s.met.Counter(trace.CtrTuplesTaken),
		reinstated: s.met.Counter(trace.CtrTuplesReinstated),
		reclaimed:  s.met.Counter(trace.CtrTuplesReclaimed),
	}
	if s.nTagShards <= 0 {
		s.nTagShards = defaultShards()
	}
	if s.nTagShards > 256 {
		s.nTagShards = 256
	}
	// Round up to a power of two so tag routing is a mask.
	s.nTagShards = 1 << uint(bits.Len(uint(s.nTagShards-1)))
	// shardBits must index tag shards plus the scan shard.
	s.shardBits = uint(bits.Len(uint(s.nTagShards)))
	s.janitor = clock.QueueOf(s.clk)
	s.shards = make([]*shard, s.nTagShards+1)
	for i := range s.shards {
		s.shards[i] = &shard{
			st:      s,
			idx:     uint64(i),
			rng:     rand.New(rand.NewSource(s.seed + int64(i)*7919)),
			byID:    make(map[uint64]*entry),
			byArity: make(map[int]map[uint64]*entry),
			byTag:   make(map[tagKey]map[uint64]*entry),
			waiters: make(map[tagKey][]*waiter),
		}
	}
	return s
}

// Out implements space.Space.
func (s *Store) Out(t tuple.Tuple, expiry time.Time) (uint64, error) {
	return s.out(t, expiry, 0)
}

// out is Out, for a new tuple or, with id set, for a released hold's:
// that one comes back under the id its out-lease and its replica copies
// know it by.
func (s *Store) out(t tuple.Tuple, expiry time.Time, id uint64) (uint64, error) {
	key, _, tagged := waiterKeyOfTuple(t)
	var sh *shard
	if tagged {
		sh = s.shardOf(key)
	} else {
		sh = s.scanShard()
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return 0, ErrClosed
	}
	// Sinks run once the locks are dropped; the readers among them are
	// collected here, on the stack unless more than two are parked.
	var buf [2]*waiter
	taker, claims, readers := sh.deliverLocked(key, t, buf[:0])
	if taker == nil && claims {
		taker = sh.handOverLocked(key, t)
	}
	// The tuple is stored — or, with a taker, stored and tentatively
	// removed in one step: the caller tracks the id either way, and the
	// hold's Accept or Release settles it as it would after a Hold.
	e := sh.newEntryLocked(t, expiry, id)
	if taker == nil {
		sh.linkLocked(e)
	}
	sh.mu.Unlock()
	for _, w := range readers {
		w.sink.Deliver(t, nil)
	}
	if taker != nil {
		taker.call(e)
	}
	s.ctr.stored.Inc()
	return e.id, nil
}

// deliverLocked serves t to pending registrations in FIFO (seq) order
// across the shard's (arity, tag) bucket and the global formal-lead list:
// every matching Read is claimed for a copy until a matching Take is
// claimed for the tuple itself. The claimed Reads are appended to buf and
// returned for the caller to call unlocked, and the Take as taker. Claims
// are passed over: they rank behind every Take — a local in accepts at
// once, a peer's hold is tentative for a round trip — so they are only
// served, by handOverLocked, once this walk has found no Take; claims
// reports whether it passed any. Caller holds sh.mu.
func (sh *shard) deliverLocked(key tagKey, t tuple.Tuple, buf []*waiter) (taker *waiter, claims bool, reads []*waiter) {
	s, reads := sh.st, buf
	ws := sh.waiters[key]
	var gs []*waiter
	globalLocked := false
	if s.nGlobal.Load() > 0 {
		// Lock order is always shard → global; see package doc.
		s.gmu.Lock()
		globalLocked = true
		gs = s.gwaiters
	}
	if len(ws) == 0 && len(gs) == 0 {
		if globalLocked {
			s.gmu.Unlock()
		}
		return nil, false, reads
	}

	// Merge-iterate the two seq-ordered lists, compacting settled waiters
	// as we go. wi/gi are read cursors; wk/gk are write cursors.
	wi, gi, wk, gk := 0, 0, 0, 0
	dropGlobal := 0
	defer func() {
		// Keep the unvisited tails, drop the settled prefix entries.
		if wk != wi {
			wk += copy(ws[wk:], ws[wi:])
			sh.setWaitersLocked(key, ws[:wk])
		}
		if globalLocked {
			if gk != gi {
				gk += copy(gs[gk:], gs[gi:])
				clear(s.gwaiters[gk:])
				s.gwaiters = gs[:gk]
			}
			if dropGlobal > 0 {
				s.nGlobal.Add(int64(-dropGlobal))
			}
			s.gmu.Unlock()
		}
	}()

	for wi < len(ws) || gi < len(gs) {
		var w *waiter
		fromGlobal := false
		switch {
		case wi >= len(ws):
			w, fromGlobal = gs[gi], true
		case gi >= len(gs):
			w = ws[wi]
		case gs[gi].seq < ws[wi].seq:
			w, fromGlobal = gs[gi], true
		default:
			w = ws[wi]
		}
		if w.state.Load() != parked {
			// Cancelled or served elsewhere: compact it away.
			if fromGlobal {
				gi++
				dropGlobal++
			} else {
				wi++
			}
			continue
		}
		if w.kind == space.Claim {
			claims = true
		}
		if w.kind == space.Claim || !w.p.Matches(t) || !w.claim() {
			// Keep claims, unmatched and lost-race waiters registered.
			if fromGlobal {
				gs[gk] = gs[gi]
				gi++
				gk++
			} else {
				ws[wk] = ws[wi]
				wi++
				wk++
			}
			continue
		}
		if fromGlobal {
			gi++
			dropGlobal++
		} else {
			wi++
		}
		if w.kind == space.Take {
			return w, claims, reads
		}
		reads = append(reads, w)
	}
	return nil, claims, reads
}

// handOverLocked claims and unlinks the oldest parked Claim that matches
// t, or returns nil if none was left to claim: one call per tuple, every
// younger Claim stays parked. The caller hands it t as a hold on an entry
// that is never linked into an index. Caller holds sh.mu.
func (sh *shard) handOverLocked(key tagKey, t tuple.Tuple) *waiter {
	s := sh.st
	ws := sh.waiters[key]
	var gs []*waiter
	if s.nGlobal.Load() > 0 {
		s.gmu.Lock()
		defer s.gmu.Unlock()
		gs = s.gwaiters
	}
	for wi, gi := 0, 0; wi < len(ws) || gi < len(gs); {
		fromGlobal := wi >= len(ws) || (gi < len(gs) && gs[gi].seq < ws[wi].seq)
		var w *waiter
		if fromGlobal {
			w = gs[gi]
			gi++
		} else {
			w = ws[wi]
			wi++
		}
		if w.kind != space.Claim || !w.p.Matches(t) || !w.claim() {
			continue
		}
		if fromGlobal {
			s.gwaiters = append(gs[:gi-1], gs[gi:]...)
			gs[len(gs)-1] = nil
			s.nGlobal.Add(-1)
		} else {
			sh.setWaitersLocked(key, append(ws[:wi-1], ws[wi:]...))
		}
		return w
	}
	return nil
}

// setWaitersLocked stores a waiter bucket, removing empty buckets.
func (sh *shard) setWaitersLocked(key tagKey, ws []*waiter) {
	if len(ws) == 0 {
		delete(sh.waiters, key)
		return
	}
	sh.waiters[key] = ws
}

// newEntryLocked makes an unlinked entry for t — a hold's state — under
// id, or the shard's next id when that is 0. Caller holds sh.mu.
func (sh *shard) newEntryLocked(t tuple.Tuple, expiry time.Time, id uint64) *entry {
	if id == 0 {
		sh.nextSeq++
		id = sh.nextSeq<<sh.st.shardBits | sh.idx
	}
	return &entry{s: sh.st, id: id, t: t, size: t.Size(), expiry: expiry, index: -1}
}

// linkLocked makes e visible to matching and the janitor. Caller holds
// sh.mu.
func (sh *shard) linkLocked(e *entry) {
	id, t, expiry := e.id, e.t, e.expiry
	sh.byID[id] = e
	bucket := sh.byArity[t.Arity()]
	if bucket == nil {
		bucket = make(map[uint64]*entry)
		sh.byArity[t.Arity()] = bucket
	}
	bucket[id] = e
	if tk, ok := tagOfTuple(t); ok {
		tb := sh.byTag[tk]
		if tb == nil {
			tb = make(map[uint64]*entry)
			sh.byTag[tk] = tb
		}
		tb[id] = e
	}
	sh.bytes += e.size
	if !expiry.IsZero() {
		heap.Push(&sh.expiry, e)
		sh.scheduleJanitorLocked()
	}
}

// pickLocked chooses a matching live entry nondeterministically, or nil.
// Caller holds sh.mu.
func (sh *shard) pickLocked(p tuple.Template) *entry {
	var bucket map[uint64]*entry
	if tk, ok := tagOfTemplate(p); ok {
		// Tag-pinned templates scan only same-tag candidates.
		bucket = sh.byTag[tk]
	} else {
		bucket = sh.byArity[p.Arity()]
	}
	if len(bucket) == 0 {
		return nil
	}
	now := sh.st.clk.Now()
	// Collect a bounded candidate set: Linda only requires that one
	// match be selected nondeterministically, and Go's randomised map
	// iteration varies which region of the bucket we sample, so capping
	// the scan keeps dense buckets O(1) without biasing selection to a
	// fixed tuple. Sized for every candidate, the slice stays on the stack.
	const maxCandidates = 32
	matches := make([]*entry, 0, maxCandidates)
	for _, e := range bucket {
		if !e.expiry.IsZero() && !e.expiry.After(now) {
			continue // expired but not yet reclaimed
		}
		if p.Matches(e.t) {
			matches = append(matches, e)
			if len(matches) >= maxCandidates {
				break
			}
		}
	}
	if len(matches) == 0 {
		return nil
	}
	if len(matches) == 1 {
		return matches[0]
	}
	return matches[sh.rng.Intn(len(matches))]
}

// removeLocked unlinks e from every index. Emptied buckets are kept: a
// hot out→in cycle on one tag class would otherwise free and reallocate
// its bucket maps on every pair, and an empty map costs ~48 bytes per
// tag class ever seen — workloads keep tag sets small, so retention is
// cheaper than churn.
func (sh *shard) removeLocked(e *entry) {
	delete(sh.byID, e.id)
	if bucket := sh.byArity[e.t.Arity()]; bucket != nil {
		delete(bucket, e.id)
	}
	if tk, ok := tagOfTuple(e.t); ok {
		if tb := sh.byTag[tk]; tb != nil {
			delete(tb, e.id)
		}
	}
	sh.bytes -= e.size
	if e.index >= 0 {
		heap.Remove(&sh.expiry, int(e.index))
	}
}

// routeShard returns the single shard a pinned or scan-class template
// operates on, or nil for formal-lead templates whose matches may live
// in any shard.
func (s *Store) routeShard(p tuple.Template) *shard {
	key, class := classify(p)
	switch class {
	case classPinned:
		return s.shardOf(key)
	case classScan:
		return s.scanShard()
	}
	return nil
}

// scanStart rotates the starting shard of cross-shard searches so
// repeated wildcard probes spread across the space instead of always
// favouring shard 0.
func (s *Store) scanStart() int {
	return int(s.scanCursor.Add(1)) % len(s.shards)
}

// rdpShard reads one match from sh, if any.
func (sh *shard) rdpShard(p tuple.Template) (tuple.Tuple, bool) {
	sh.mu.Lock()
	if e := sh.pickLocked(p); e != nil {
		t := e.t
		sh.mu.Unlock()
		return t, true
	}
	sh.mu.Unlock()
	return tuple.Tuple{}, false
}

// Rdp implements space.Space.
func (s *Store) Rdp(p tuple.Template) (tuple.Tuple, bool) {
	if sh := s.routeShard(p); sh != nil {
		return sh.rdpShard(p)
	}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		if t, ok := s.shards[(start+k)%n].rdpShard(p); ok {
			return t, true
		}
	}
	return tuple.Tuple{}, false
}

// inpShard takes one match from sh, if any.
func (sh *shard) inpShard(p tuple.Template) (tuple.Tuple, bool) {
	sh.mu.Lock()
	e := sh.pickLocked(p)
	if e == nil {
		sh.mu.Unlock()
		return tuple.Tuple{}, false
	}
	sh.removeLocked(e)
	sh.mu.Unlock()
	sh.st.ctr.taken.Inc()
	sh.st.notifyRemoved(e)
	return e.t, true
}

// Inp implements space.Space.
func (s *Store) Inp(p tuple.Template) (tuple.Tuple, bool) {
	if sh := s.routeShard(p); sh != nil {
		return sh.inpShard(p)
	}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		if t, ok := s.shards[(start+k)%n].inpShard(p); ok {
			return t, true
		}
	}
	return tuple.Tuple{}, false
}

// Park implements space.Space. If a matching tuple is already present it
// is delivered at once (held first unless kind is Read); otherwise the
// registration is parked for the next matching Out. This atomicity is
// what makes the blocking rd/in race-free: there is no window between
// "check the space" and "register interest". For pinned and scan
// templates both steps happen under one shard lock; formal-lead
// templates register globally first and then scan, which is equivalent
// (see package doc).
func (s *Store) Park(p tuple.Template, kind space.Kind, sink space.Sink) space.Parked {
	w := &waiter{s: s, p: p, kind: kind, sink: sink}
	key, class := classify(w.p)
	if class == classGlobal {
		s.registerGlobal(w)
		return w
	}
	var sh *shard
	if class == classPinned {
		sh = s.shardOf(key)
	} else {
		sh = s.scanShard()
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		w.withdraw()
		return w
	}
	if e := sh.pickLocked(w.p); e != nil {
		w.state.Store(delivered)
		sh.settleLocked(w, e)
		sh.mu.Unlock()
		w.call(e)
		return w
	}
	w.seq = s.waiterSeq.Add(1)
	w.sh, w.key = sh, key
	sh.waiters[key] = append(sh.waiters[key], w)
	sh.mu.Unlock()
	return w
}

// settleLocked takes the resident entry e for the claimed waiter w,
// unlinking it unless w only reads. Caller holds sh.mu and calls w with e
// once it has let go.
func (sh *shard) settleLocked(w *waiter, e *entry) {
	if w.kind != space.Read {
		sh.removeLocked(e)
	}
}

// registerGlobal registers a formal-lead waiter on the global list, then
// scans the shards for an already-present match. Registration-first makes
// the check-then-register step race-free without a store-wide lock: any
// Out that stores after our registration sees us on the list; any Out
// that stored before is found by the scan.
func (s *Store) registerGlobal(w *waiter) {
	s.gmu.Lock()
	if s.closed.Load() {
		s.gmu.Unlock()
		w.withdraw()
		return
	}
	w.seq = s.waiterSeq.Add(1)
	w.global = true
	s.gwaiters = append(s.gwaiters, w)
	s.nGlobal.Add(1)
	s.gmu.Unlock()

	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		sh := s.shards[(start+k)%n]
		sh.mu.Lock()
		e := sh.pickLocked(w.p)
		if e == nil {
			sh.mu.Unlock()
			continue
		}
		if !w.claim() {
			// A concurrent Out already delivered to us (or a Cancel got
			// in); e stays in the space.
			sh.mu.Unlock()
			return
		}
		sh.settleLocked(w, e)
		sh.mu.Unlock()
		s.dropGlobal(w)
		w.call(e)
		return
	}
}

// dropGlobal removes w from the global list if still present (Out's
// compaction may already have dropped it).
func (s *Store) dropGlobal(w *waiter) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for i, g := range s.gwaiters {
		if g == w {
			s.gwaiters = append(s.gwaiters[:i], s.gwaiters[i+1:]...)
			s.nGlobal.Add(-1)
			return
		}
	}
}

// Cancel implements space.Parked: it withdraws the interest and reports
// whether no delivery was or will be made. A delivery that claimed the
// waiter first stands: its sink is called. A waiter that was never parked
// (immediate hit, closed store) has nothing to unlink.
func (w *waiter) Cancel() bool {
	switch {
	case w.sh != nil:
		w.sh.mu.Lock()
		if w.withdraw() {
			ws := w.sh.waiters[w.key]
			for i, o := range ws {
				if o == w {
					w.sh.setWaitersLocked(w.key, append(ws[:i], ws[i+1:]...))
					break
				}
			}
		}
		w.sh.mu.Unlock()
	case w.global:
		w.withdraw()
		w.s.dropGlobal(w)
	}
	return w.state.Load() == cancelled
}

// holdShard tentatively takes one match from sh, if any.
func (sh *shard) holdShard(p tuple.Template) (space.Hold, bool) {
	sh.mu.Lock()
	e := sh.pickLocked(p)
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	sh.removeLocked(e)
	sh.mu.Unlock()
	return e, true
}

// Hold implements space.Space.
func (s *Store) Hold(p tuple.Template) (space.Hold, bool) {
	if sh := s.routeShard(p); sh != nil {
		return sh.holdShard(p)
	}
	n, start := len(s.shards), s.scanStart()
	for k := 0; k < n; k++ {
		if h, ok := s.shards[(start+k)%n].holdShard(p); ok {
			return h, true
		}
	}
	return nil, false
}

func (e *entry) Tuple() tuple.Tuple { return e.t }

func (e *entry) ID() uint64 { return e.id }

func (e *entry) Accept() {
	if !e.settled.CompareAndSwap(false, true) {
		return
	}
	e.s.ctr.taken.Inc()
	e.s.notifyRemoved(e)
}

func (e *entry) Release() {
	if !e.settled.CompareAndSwap(false, true) {
		return
	}
	// Reinstate with the original expiry; if it expired while held it
	// will be reclaimed by the janitor path on the next operation.
	if _, err := e.s.out(e.t, e.expiry, e.id); err == nil {
		e.s.ctr.reinstated.Inc()
		// Out counted a store; a reinstatement is not a new tuple.
		e.s.ctr.stored.Add(-1)
	}
}

// Remove implements space.Space. The shard index is carried in the id's
// low bits, so removal is a single-shard operation.
func (s *Store) Remove(id uint64) (tuple.Tuple, bool) {
	idx := id & (1<<s.shardBits - 1)
	if idx >= uint64(len(s.shards)) {
		return tuple.Tuple{}, false
	}
	sh := s.shards[idx]
	sh.mu.Lock()
	e, ok := sh.byID[id]
	if !ok {
		sh.mu.Unlock()
		return tuple.Tuple{}, false
	}
	sh.removeLocked(e)
	sh.mu.Unlock()
	s.notifyRemoved(e)
	return e.t, true
}

// Leases implements space.Space: the shards' expiry heaps hold every
// linked entry with an expiry, the soonest at each head.
func (s *Store) Leases() (n int, bytes int64, soonest space.Entry, ok bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, e := range sh.expiry {
			if n++; k == 0 && (!ok || e.expiry.Before(soonest.Expiry)) {
				soonest, ok = space.Entry{ID: e.id, Size: e.size, Expiry: e.expiry}, true
			}
			bytes += e.size
		}
		sh.mu.Unlock()
	}
	return n, bytes, soonest, ok
}

// Count implements space.Space.
func (s *Store) Count() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.byID)
		sh.mu.Unlock()
	}
	return n
}

// Bytes implements space.Space.
func (s *Store) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Snapshot implements space.Space. Entry references are collected under
// each shard lock and the tuples deep-copied outside it, so diagnostics
// on a large space never stall the hot path for the duration of the copy.
func (s *Store) Snapshot() []tuple.Tuple {
	refs := make([]tuple.Tuple, 0, 64)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.byID {
			refs = append(refs, e.t)
		}
		sh.mu.Unlock()
	}
	out := make([]tuple.Tuple, len(refs))
	for i, t := range refs {
		out[i] = t.Copy()
	}
	return out
}

// NeverBlocks implements space.NonBlocking: every call holds a shard
// lock only for its own in-memory work.
func (s *Store) NeverBlocks() bool { return true }

// Close implements space.Space.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var ws []*waiter
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		s.janitor.Cancel(sh)
		for _, list := range sh.waiters {
			ws = append(ws, list...)
		}
		sh.waiters = make(map[tagKey][]*waiter)
		sh.mu.Unlock()
	}
	s.gmu.Lock()
	ws = append(ws, s.gwaiters...)
	s.gwaiters = nil
	s.nGlobal.Store(0)
	s.gmu.Unlock()
	for _, w := range ws {
		w.withdraw() // no sink is called: the caller is tearing down
	}
	return nil
}

// Waiter is a Park registration delivered on a channel and settled the
// way a node settles its own rd and in: a hold is accepted at once.
type Waiter struct {
	space.Parked
	ch chan tuple.Tuple
}

// Wait parks a Waiter for a copy of a match (remove false) or for the
// match itself. It serves callers that time a wake-up as one call and a
// receive; the node registers through Park.
func (s *Store) Wait(p tuple.Template, remove bool) *Waiter {
	kind := space.Read
	if remove {
		kind = space.Take
	}
	w := &Waiter{ch: make(chan tuple.Tuple, 1)}
	w.Parked = s.Park(p, kind, w)
	return w
}

// Deliver implements space.Sink.
func (w *Waiter) Deliver(t tuple.Tuple, h space.Hold) {
	if h != nil {
		h.Accept()
	}
	w.ch <- t
}

// Chan delivers the match.
func (w *Waiter) Chan() <-chan tuple.Tuple { return w.ch }

// --- expiry management -------------------------------------------------

type expiryHeap []*entry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expiry.Before(h[j].expiry) }
func (h expiryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = int32(i), int32(j)
}
func (h *expiryHeap) Push(x any) { e := x.(*entry); e.index = int32(len(*h)); *h = append(*h, e) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// scheduleJanitorLocked moves the shard's queue entry up to its earliest
// expiry when that is sooner than the instant it is scheduled for.
// Caller holds sh.mu.
func (sh *shard) scheduleJanitorLocked() {
	if sh.closed || len(sh.expiry) == 0 {
		return
	}
	head := sh.expiry[0].expiry
	if sh.reclaimAt.IsZero() || head.Before(sh.reclaimAt) {
		sh.reclaimAt = head
		sh.st.janitor.Schedule(sh, head)
	}
}

// Expire implements clock.Entry: the shard's earliest expiry may have
// passed. It reclaims the expired tuples and re-schedules the janitor.
func (sh *shard) Expire() {
	s := sh.st
	var reclaimed []*entry
	sh.mu.Lock()
	defer func() {
		sh.mu.Unlock()
		s.notifyRemoved(reclaimed...)
	}()
	if sh.closed {
		return
	}
	now := s.clk.Now()
	for len(sh.expiry) > 0 && !sh.expiry[0].expiry.After(now) {
		e := heap.Pop(&sh.expiry).(*entry)
		e.index = -1 // already popped; keep removeLocked's heap fix-up out
		sh.removeLocked(e)
		s.ctr.reclaimed.Inc()
		reclaimed = append(reclaimed, e)
	}
	sh.reclaimAt = time.Time{}
	sh.scheduleJanitorLocked()
}

// Reclaimed reports how many tuples the janitor has reclaimed (test aid).
func (s *Store) Reclaimed() int64 { return s.ctr.reclaimed.Load() }
