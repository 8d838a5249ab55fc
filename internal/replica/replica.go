// Package replica implements leased replica sets (DESIGN.md §13), which
// the paper does not have: the node that performs an out stays the
// tuple's primary, and writes a copy through to the R-1 next holders the
// consistent-hash ring (routing.Ring) places for the tuple's (tag, arity)
// key. Copies live in a replica store of their own, never in the space,
// and expire with the out's lease. Any copy may answer a read; a copy is
// surrendered to a take only on a failover take, and only once every
// holder ranked above it is provably dead. A consumed identity is fenced
// against late replicates, and a periodic repair sweep re-places unacked
// copies and adopts those of a dead origin.
//
// A node runs a Set only at R ≥ 2, and hands it what it needs of the node
// in one Host at New. It calls the Set at named hooks: placement
// (Placing, Placed) and local removal (Removed); the served read (Read),
// the failover hold (FailoverHold) and the found reply's identity
// (Identity); the requester's local serve (ServeLocal), its failover
// holders (AppendHolders) and its accepted-reply invalidation (Consumed);
// inbound replica frames (Frame); a peer's join (Joined); and the two
// reports (Report, Copies). At R=1 a node holds no Set, and no frame
// carries a replica field.
package replica

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/internal/discovery"
	"tiamat/routing"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

const (
	// maxCopies bounds the replica store. Replication is soft state: an
	// overflowing store refuses further copies (the origin keeps them
	// unacked and retries later) rather than evicting live ones.
	maxCopies = 8192
	// fenceTTL is the shortest a consumed identity stays fenced, and how
	// long an unacked replicate flight is remembered: a requester's whole
	// retransmission window, the responders' dedup horizon.
	fenceTTL = 30 * time.Second
)

// Host is what a Set needs from its node, handed once to New.
type Host struct {
	Addr     wire.Addr // the node's contact address: every out it makes is an origin's
	Replicas int       // the replica-set size R, at least 2
	// ContactTimeout bounds the write-through wait and the failover
	// grace, and sets the repair sweep's period (four of them).
	ContactTimeout time.Duration
	Queue          *clock.Queue // the node's one timer and clock
	List           *discovery.ResponderList
	Local          space.Space    // the node's space, whose entries are the origin copies
	Metrics        *trace.Metrics // the node's registry
	Relays         func() []wire.Addr
	NextID         func() uint64 // a fresh frame ID from the node's op ID space
	// Send transmits one frame, evicting an unreachable peer from List.
	Send      func(to wire.Addr, m *wire.Message) error
	Multicast func(m *wire.Message)
	// Announce returns a fresh announce of the node, the proof-of-death
	// probe.
	Announce func() *wire.Message
	Closed   func() bool // the node's Close has begun
	Stopping func() bool // the node is draining or closed
	Stopped  <-chan struct{}
	// Recover is deferred around each repair pass: it recovers a panic
	// and records it as the node's own.
	Recover func(where string)
}

// key identifies a replicated tuple: the instance whose out created it
// plus that origin's write sequence number.
type key struct {
	origin wire.Addr
	seq    uint64
}

// out is a tuple this instance originated and is responsible for keeping
// replicated while its lease lives.
type out struct {
	seq    uint64 // == its local store id (authoritative copy)
	t      tuple.Tuple
	expiry time.Time
	tag    string
	arity  int
	// targets is the initial write-through set; done closes when every
	// target acked or definitively refused, or when the wait's bound — the
	// record's entry on the node's deadline queue — expires first,
	// releasing a synchronous Out.
	targets []wire.Addr
	done    chan struct{}
	settled bool
	clock.Deadline
	s *Set
	// acked tracks which holders confirmed a copy; refused tracks
	// holders that answered with a definitive refusal (the copy does NOT
	// exist there — a failed target, observable, that the sweeper keeps
	// re-placing); lastSend paces re-sends per holder so the sweeper
	// never hammers a slow peer.
	acked    map[wire.Addr]bool
	refused  map[wire.Addr]bool
	lastSend map[wire.Addr]time.Time
}

// backup is a replica copy held for another origin.
type backup struct {
	key    key
	t      tuple.Tuple
	expiry time.Time
	tag    string
	arity  int
	held   bool // surrendered to an in-flight failover hold
	// superAt is when the supersede proof first (and since continuously)
	// held for this copy. A destructive failover serve waits out a
	// ContactTimeout-sized grace from that point, so an invalidation
	// already in flight from a take the origin served just before dying
	// lands first instead of racing the failover.
	superAt time.Time
	// lastRepair paces adoption re-replication per target.
	lastRepair map[wire.Addr]time.Time
}

// flight is a replicate frame awaiting its ack.
type flight struct {
	seq uint64
	to  wire.Addr
	at  time.Time
}

// counters are the Set's handles on the node's registry.
type counters struct {
	writes, writeRefused, writeUnacked *trace.Counter
	failoverTakes, fencedHolds         *trace.Counter
	repairs, staleReads, msgs          *trace.Counter
}

// Set is a node's replication state. Its mutex is a leaf: nothing is
// called while holding it that takes a node lock or any discovery/list
// lock.
type Set struct {
	h   Host
	ctr counters

	// The replica sequence of an own out IS its local space id: unique,
	// nonzero, and derivable from a space.Hold with no side lookup — so a
	// take served in the window before Placed registers its record still
	// stamps the correct identity onto the reply.
	mu      sync.Mutex
	outs    map[uint64]*out // own replicated outs, by seq (== space id)
	copies  map[key]*backup
	fences  map[key]time.Time // refused identities → fence expiry
	pend    map[uint64]flight // replicate ack ID → flight info
	ring    *routing.Ring
	ringRev uint64
	repair  *clock.Sweep
	// placing counts the outs between the space's Out and their record
	// here, which may hand the tuple to a parked taker that removes it for
	// good first; a removal finding no record meanwhile leaves its id in
	// early, for its out to find (Placed) and replicate nothing.
	placing atomic.Int32
	early   map[uint64]struct{}
}

// New returns the replica set of the node h describes, its repair sweep
// scheduled on h.Queue.
func New(h Host) *Set {
	m := h.Metrics
	s := &Set{
		h: h,
		ctr: counters{
			writes:        m.Counter(trace.CtrReplWrites),
			writeRefused:  m.Counter(trace.CtrReplWriteRefused),
			writeUnacked:  m.Counter(trace.CtrReplWriteUnacked),
			failoverTakes: m.Counter(trace.CtrReplFailoverTakes),
			fencedHolds:   m.Counter(trace.CtrReplFencedHolds),
			repairs:       m.Counter(trace.CtrReplRepairs),
			staleReads:    m.Counter(trace.CtrReplStaleReads),
			msgs:          m.Counter(trace.CtrReplicaMsgs),
		},
		outs:   make(map[uint64]*out),
		copies: make(map[key]*backup),
		fences: make(map[key]time.Time),
		pend:   make(map[uint64]flight),
		early:  make(map[uint64]struct{}),
	}
	s.repair = clock.NewSweep(h.Queue, func() {
		defer h.Recover("sweep")
		s.repairPass()
	})
	s.repair.SetPeriod(4 * h.ContactTimeout)
	return s
}

// ReplicationReport snapshots the replication machinery's activity and
// current footprint, for the drain report and experiments.
type ReplicationReport struct {
	Writes        uint64 // write-through replicates sent by Out
	FailoverTakes uint64 // destructive takes served from the replica store
	Repairs       uint64 // anti-entropy re-sends (own outs + adopted copies)
	FencedHolds   uint64 // replicates refused because their key was fenced
	StaleReads    uint64 // reads answered from a replica copy
	WriteRefusals uint64 // write-throughs a backup definitively refused
	Outs          int    // live replicated outs this node originated
	Copies        int    // replica copies held for other origins
	Fences        int    // live fence records
	// UnderReplicated counts own outs with at least one current ring
	// holder that has not acked a copy — the quantity the repair sweep
	// drives to zero.
	UnderReplicated int
}

// Report snapshots the replication machinery.
func (s *Set) Report() ReplicationReport {
	rep := ReplicationReport{
		Writes:        uint64(s.ctr.writes.Load()),
		FailoverTakes: uint64(s.ctr.failoverTakes.Load()),
		Repairs:       uint64(s.ctr.repairs.Load()),
		FencedHolds:   uint64(s.ctr.fencedHolds.Load()),
		StaleReads:    uint64(s.ctr.staleReads.Load()),
		WriteRefusals: uint64(s.ctr.writeRefused.Load()),
	}
	ring := s.ringNow()
	s.mu.Lock()
	rep.Outs = len(s.outs)
	rep.Copies = len(s.copies)
	rep.Fences = len(s.fences)
	for _, o := range s.outs {
		for _, a := range s.backupsFor(ring, o.tag, o.arity) {
			if !o.acked[a] {
				rep.UnderReplicated++
				break
			}
		}
	}
	s.mu.Unlock()
	return rep
}

// Copies counts the copies matching p unexpired at now, for experiments
// asserting replication converged.
func (s *Set) Copies(p tuple.Template, now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.copies {
		if now.Before(c.expiry) && p.Matches(c.t) {
			n++
		}
	}
	return n
}

// tupleKey derives a tuple's ring placement key: the leading concrete
// string field (the idiomatic Linda discriminator) plus arity. Tuples
// with a non-string lead spread under the empty tag.
func tupleKey(t tuple.Tuple) (string, int) {
	tag, _ := t.StringAt(0)
	return tag, t.Arity()
}

// ringNow returns the placement ring for the current membership,
// rebuilding it when the responder list's revision moved. Membership is
// everyone the list knows — including suspected and demoted peers, who
// still hold their replicas — plus this instance.
func (s *Set) ringNow() *routing.Ring {
	rev := s.h.List.Revision()
	s.mu.Lock()
	if s.ring != nil && s.ringRev == rev {
		ring := s.ring
		s.mu.Unlock()
		return ring
	}
	s.mu.Unlock()
	members := append(s.h.List.Members(), s.h.Addr)
	relays := s.h.Relays()
	// Backbone weighting: relay/backbone nodes take double the placement
	// share — they are the persistently visible, well-connected members
	// (routing.Selector's criteria), exactly where replicas are worth
	// the most.
	ring := routing.BuildRing(members, func(a wire.Addr) int {
		if slices.Contains(relays, a) {
			return 2
		}
		return 1
	})
	s.mu.Lock()
	s.ring, s.ringRev = ring, rev
	s.mu.Unlock()
	return ring
}

// holdersFor returns the ranked holder chain for a replicated tuple: the
// origin first (authoritative), then ring-placed backups in rank order,
// R holders total. Every node computes the same chain from the same
// membership snapshot — the basis of coordination-free failover.
func (s *Set) holdersFor(ring *routing.Ring, origin wire.Addr, tag string, arity int) []wire.Addr {
	chain := append(make([]wire.Addr, 0, s.h.Replicas), origin)
	for _, a := range ring.Place(tag, arity, s.h.Replicas) {
		if a != origin && len(chain) < s.h.Replicas {
			chain = append(chain, a)
		}
	}
	return chain
}

// backupsFor returns the backup holders (the chain minus self) for a
// tuple this instance originated. Safe with or without s.mu held — it
// touches only the immutable ring.
func (s *Set) backupsFor(ring *routing.Ring, tag string, arity int) []wire.Addr {
	return s.holdersFor(ring, s.h.Addr, tag, arity)[1:]
}

// AppendHolders appends to a destructive walk's contact queue the ring
// holders for the key p selects, skipping self and addresses already
// queued. A freshly dead primary's backups may be suspected, and so
// absent from the ordinary responder snapshot, while still alive and
// holding the copy: the failover walk should reach them. A template with a
// formal leading field matches tuples under any tag, selects no one key
// and appends nothing.
func (s *Set) AppendHolders(queue []wire.Addr, p tuple.Template) []wire.Addr {
	f, err := p.Field(0)
	if err != nil || f.Formal() {
		return queue
	}
	tag, _ := f.StringValue()
	for _, a := range s.ringNow().Place(tag, p.Arity(), s.h.Replicas) {
		if a != s.h.Addr && !slices.Contains(queue, a) {
			queue = append(queue, a)
		}
	}
	return queue
}

// --- origin side: write-through and invalidation ------------------------

// Placing opens an out's window: from here to its Placed, a removal of
// the entry the out makes is remembered, so the out replicates nothing.
func (s *Set) Placing() { s.placing.Add(1) }

// leavePlacing closes an out's window. Unless the Out failed (o nil), the
// node is closing or the tuple was removed inside the window, it makes o
// the out's record and reports true.
func (s *Set) leavePlacing(o *out, closing bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.placing.Add(-1) == 0 {
		defer clear(s.early)
	}
	if o == nil || closing {
		return false
	}
	if _, removed := s.early[o.seq]; removed {
		return false
	}
	s.outs[o.seq] = o
	return true
}

// Placed closes the window Placing opened and replicates a freshly placed
// tuple, space id sid, to its ring backups; sid 0 is an Out the space
// refused, which replicates nothing. With await it waits (bounded by
// ContactTimeout) for their acks — so when Out returns, a kill of this
// node no longer strands the tuple. The wait is best-effort: on timeout
// the out stands and the sweeper finishes the job. A Close that began
// before it returns is another matter: the node's own copy goes with it,
// and from the moment Close starts no record is made here and no
// replicate can leave, so unless a backup acked a copy the write may have
// survived nowhere, and Placed reports false. Without await it only
// sends: a placement made while serving a frame must not block on
// another node's reply (DESIGN.md §9). now is the placement's reading.
//
// The replicates ride the out's own lease, expiring at its deadline: each
// spends a unit of its remote budget, remotes — the "replication lease"
// bounding communication effort exactly as §2.5 bounds everything else.
//
// The tuple is tracked first: an out written while isolated still gets a
// record, so the sweep replicates it once peers appear; one already
// removed within its window gets none (leavePlacing).
func (s *Set) Placed(sid uint64, t tuple.Tuple, expiry time.Time, remotes int, await bool, now time.Time) (survives bool) {
	if sid == 0 {
		s.leavePlacing(nil, false)
		return true
	}
	tag, arity := tupleKey(t)
	o := &out{
		seq: sid, t: t.Copy(), expiry: expiry, tag: tag, arity: arity, s: s,
		done:  make(chan struct{}),
		acked: make(map[wire.Addr]bool), refused: make(map[wire.Addr]bool),
		lastSend: make(map[wire.Addr]time.Time),
	}
	live := s.leavePlacing(o, s.h.Closed())
	defer func() {
		s.mu.Lock()
		acked := len(o.acked) > 0
		s.mu.Unlock()
		survives = acked || !s.h.Closed()
	}()
	if !live {
		return
	}
	targets := s.backupsFor(s.ringNow(), o.tag, o.arity)
	if len(targets) == 0 {
		return // nobody visible to hold a copy; the sweeper catches up
	}

	sent := o.targets[:0]
	for _, a := range targets {
		if remotes <= 0 {
			break // replication effort is bounded by the out lease
		}
		remotes--
		s.mu.Lock()
		m := s.replicateLocked(o, a, now)
		s.mu.Unlock()
		if s.h.Send(a, m) != nil {
			s.mu.Lock()
			delete(s.pend, m.ID)
			s.mu.Unlock()
			continue // unreachable: the sweeper re-places the copy later
		}
		sent = append(sent, a)
		s.ctr.writes.Inc()
	}
	s.mu.Lock()
	o.targets = sent
	s.settleLocked(o, false)
	done := o.done
	s.mu.Unlock()

	s.h.Queue.Schedule(o, now.Add(s.h.ContactTimeout))
	if !await {
		return // Expire still counts a target silent through the window
	}
	defer s.h.Queue.Cancel(o)
	// Settled, or timed out (Expire): either way the out stands, and the
	// sweeper converges what the wait did not see acked — unless the node
	// is closing, which the deferred check answers.
	select {
	case <-done:
	case <-s.h.Stopped:
	}
	return
}

// replicateLocked returns the replicate of o for holder a, sent at now,
// with its ack awaited as a flight. Caller holds s.mu.
func (s *Set) replicateLocked(o *out, a wire.Addr, now time.Time) *wire.Message {
	m := &wire.Message{
		Type: wire.TOut, ID: s.h.NextID(), From: s.h.Addr,
		TTL: o.expiry.Sub(now), Tuple: o.t,
		ReplOrigin: s.h.Addr, ReplSeq: o.seq,
	}
	s.pend[m.ID] = flight{seq: o.seq, to: a, at: now}
	o.lastSend[a] = now
	return m
}

// Expire implements clock.Entry: the write-through wait ran out.
func (o *out) Expire() {
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	o.s.settleLocked(o, true)
}

// settleLocked closes o.done once every initial target acked or
// definitively refused — a refusal is an answer, so a synchronous Out
// must not run out the clock waiting for an ack that can never arrive —
// or once the wait expired. Only the wait is best-effort, not the write:
// a target silent through the whole window — a crashed peer or a lost
// frame — is a *failed* write-through, counted at the expiry so the
// silence is observable instead of reading as success. The out stands
// and the sweeper keeps re-placing the copy. Caller holds s.mu.
func (s *Set) settleLocked(o *out, expired bool) {
	if o.settled {
		return
	}
	for _, a := range o.targets {
		if !o.acked[a] && !o.refused[a] {
			if !expired {
				return
			}
			s.ctr.writeUnacked.Inc()
		}
	}
	o.settled = true
	close(o.done)
}

// finishAck settles a replicate-frame ack, reporting whether id belonged
// to one. A not-OK ack ("replication disabled", "fenced", "replica store
// full", "expired") is a definitive refusal: the copy does not exist at
// that backup. It is recorded as a failed target — counted, settling the
// synchronous wait, and leaving the target unacked so the sweeper keeps
// re-placing it — never dropped as if the write had quietly succeeded.
func (s *Set) finishAck(m *wire.Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pend[m.ID]
	if !ok {
		return false
	}
	delete(s.pend, m.ID)
	if o := s.outs[p.seq]; o != nil {
		if m.OK {
			o.acked[p.to] = true
			delete(o.refused, p.to)
		} else {
			o.refused[p.to] = true
			s.ctr.writeRefused.Inc()
		}
		s.settleLocked(o, false)
	}
	return true
}

// Removed is the origin half of invalidation: the authoritative tuple,
// space id sid, left the space (taken locally or remotely, reclaimed, or
// revoked), so every holder of a copy is told to drop it. The node calls
// it from the space's removal report.
func (s *Set) Removed(sid uint64) {
	s.mu.Lock()
	o := s.outs[sid]
	if o == nil {
		if s.placing.Load() > 0 {
			s.early[sid] = struct{}{}
		}
		s.mu.Unlock()
		return
	}
	delete(s.outs, sid)
	holders := make(map[wire.Addr]bool)
	for a := range o.lastSend { // every acked holder was sent one
		holders[a] = true
	}
	s.mu.Unlock()
	if s.h.Closed() {
		return
	}
	// Belt and braces with the taker's own invalidation round: sends are
	// idempotent at the receiver (drop + fence).
	for _, a := range s.backupsFor(s.ringNow(), o.tag, o.arity) {
		holders[a] = true
	}
	for a := range holders {
		if a == s.h.Addr {
			continue
		}
		_ = s.h.Send(a, s.cancel(key{origin: s.h.Addr, seq: sid}))
	}
}

// --- taker side: sibling invalidation on accept -------------------------

// Consumed runs after this instance accepted a take whose found reply m
// carried a replica identity: every other holder — the ring backups and,
// on a failover take, the possibly-dead origin — is told the tuple is
// consumed. A reply with no identity needs nothing. The requester is the
// one node guaranteed alive at consumption time, which is what closes the
// origin-died-after-replying window; a requester that dies right here
// leaves copies to expire with their lease (the documented staleness
// bound). now is the reply's reading.
//
// Like the hold-protocol accepts, these sends are settlement traffic:
// they finalise a consumption that already happened, so they ride
// outside the operation lease's remote budget — a budget-exhausted walk
// must not leave consumed copies undead.
func (s *Set) Consumed(m *wire.Message, now time.Time) {
	if m.ReplSeq == 0 {
		return
	}
	k := key{origin: m.ReplOrigin, seq: m.ReplSeq}
	tag, arity := tupleKey(m.Tuple)
	ring := s.ringNow()
	targets := make(map[wire.Addr]bool)
	for _, a := range s.holdersFor(ring, k.origin, tag, arity) {
		targets[a] = true
	}
	// The chain starts at the origin. Adoption after origin loss places
	// copies on the ring's first R slots outright, so cover that set too;
	// and the requester itself may be a holder with a now-stale copy.
	for _, a := range ring.Place(tag, arity, s.h.Replicas) {
		targets[a] = true
	}
	targets[s.h.Addr] = true
	delete(targets, m.From) // the server settles its own copy via the hold
	inval := s.cancel(k)
	for a := range targets {
		if a == s.h.Addr {
			s.invalidate(k, now)
			continue
		}
		_ = s.h.Send(a, inval)
	}
	// The unicast set above is computed on THIS node's ring view, but the
	// copies were placed by the origin's view — and adoption repair may
	// have spread them further. Views diverge around exactly the failures
	// that trigger failover, so finish with a multicast: every visible
	// holder drops and fences the identity, and nodes that never held it
	// fence pre-emptively against late repair sends.
	s.h.Multicast(inval)
}

// --- holder side: copies, reads, failover takes, fences -----------------

// Frame takes an inbound replica frame and reports whether m was one: a
// replicate (a TOut carrying a replica identity), an invalidation (a
// TCancel carrying one) or the TAck of a replicate this node sent. now
// is the frame's reading, or zero when the node has taken none: the Set
// then reads the clock only if it needs a reading, as a fence does.
func (s *Set) Frame(m *wire.Message, now time.Time) bool {
	switch {
	case m.Type == wire.TAck:
		return s.finishAck(m)
	case m.ReplSeq == 0:
		return false
	case m.Type == wire.TOut:
		ack := &wire.Message{Type: wire.TAck, ID: m.ID, From: s.h.Addr}
		ack.Err = s.replicate(m, now)
		ack.OK = ack.Err == ""
		_ = s.h.Send(m.From, ack)
	case m.Type == wire.TCancel:
		s.invalidate(key{origin: m.ReplOrigin, seq: m.ReplSeq}, now)
	default:
		return false
	}
	return true
}

// replicate admits a replicate/repair write-through, returning why it
// refused it, if it did: the copy is stored as soft state keyed by its
// identity, expiring with the origin's lease. Re-delivery is idempotent
// (same key, same tuple). A fenced identity — consumed via a failover
// take served here, or invalidated — is refused, which is what keeps a
// slow repair from resurrecting a consumed tuple.
func (s *Set) replicate(m *wire.Message, now time.Time) (refusal string) {
	if m.TTL <= 0 {
		return "expired"
	}
	k := key{origin: m.ReplOrigin, seq: m.ReplSeq}
	expiry := now.Add(m.TTL)
	tag, arity := tupleKey(m.Tuple)
	s.mu.Lock()
	defer s.mu.Unlock()
	if exp, fenced := s.fences[k]; fenced && now.Before(exp) {
		s.ctr.fencedHolds.Inc()
		return "fenced"
	}
	c := s.copies[k]
	if c == nil {
		if len(s.copies) >= maxCopies {
			return "replica store full"
		}
		// Retention boundary: the copy outlives the frame that carried it.
		c = &backup{
			key: k, t: m.Tuple.Copy(), tag: tag, arity: arity,
			lastRepair: make(map[wire.Addr]time.Time),
		}
		s.copies[k] = c
	}
	if expiry.After(c.expiry) {
		c.expiry = expiry
	}
	s.ctr.msgs.Inc()
	return ""
}

// invalidate drops the identified copy and fences its identity. On the
// origin itself, an inbound invalidation means the tuple was consumed
// elsewhere during a failover (this node was partitioned away or is
// rejoining): the authoritative copy is withdrawn rather than resurrected
// — the reconciliation half of fencing.
func (s *Set) invalidate(k key, now time.Time) {
	if k.origin == s.h.Addr {
		s.mu.Lock()
		o := s.outs[k.seq]
		delete(s.outs, k.seq)
		s.mu.Unlock()
		if o != nil {
			s.h.Local.Remove(o.seq)
		}
		return
	}
	if now.IsZero() {
		now = s.h.Queue.Now()
	}
	fence := now.Add(fenceTTL)
	s.mu.Lock()
	if c := s.copies[k]; c != nil {
		delete(s.copies, k)
		if c.expiry.After(fence) {
			fence = c.expiry
		}
	}
	s.fences[k] = fence
	s.mu.Unlock()
}

// Read answers a read from the replica store: any live replica may serve
// rd (DESIGN.md §13) — the copy is as fresh as its lease bounds. now is
// the read's reading.
func (s *Set) Read(p tuple.Template, now time.Time) (tuple.Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.copies {
		if !c.held && now.Before(c.expiry) && p.Matches(c.t) {
			s.ctr.staleReads.Inc()
			return c.t, true
		}
	}
	return tuple.Tuple{}, false
}

// hold surrenders a replica copy through the hold protocol: Accept
// consumes the copy and fences its identity; Release returns it to
// service (another responder won the take).
type hold struct {
	s       *Set
	c       *backup
	settled atomic.Bool
}

func (h *hold) Tuple() tuple.Tuple { return h.c.t }

// ID implements space.Hold; a replica copy is not a space entry.
func (h *hold) ID() uint64 { return 0 }

func (h *hold) Accept() {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	s := h.s
	s.mu.Lock()
	if s.copies[h.c.key] == h.c {
		delete(s.copies, h.c.key)
	}
	// Fence until the tuple's own lease would have expired: no late
	// replicate or repair of this identity can outlive the fence, so a
	// consumed tuple cannot be resurrected through this node.
	if h.c.expiry.After(s.fences[h.c.key]) {
		s.fences[h.c.key] = h.c.expiry
	}
	s.mu.Unlock()
	s.ctr.failoverTakes.Inc()
}

func (h *hold) Release() {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	h.s.mu.Lock()
	h.c.held = false
	h.s.mu.Unlock()
}

// FailoverHold serves a destructive failover take from the replica store,
// at now. The guard that keeps takes effectively-once without a
// coordination round: this node surrenders a copy only when every holder
// ranked above it in the chain — the origin, then higher-ranked ring
// backups — is provably dead (suspected by discovery, or a probe fails
// fast with ErrUnreachable). Two backups can only disagree about that
// while their membership views diverge, a window the C5 soak measures and
// lease expiry bounds; a merely-slow (gray, partitioned-from-us) primary
// keeps its takes because the probe still reaches it. On top of the
// proof sits a ContactTimeout-sized grace (see backup.superAt): the first
// attempt after the chain dies arms it and refuses, so invalidations from
// takes the dead origin served in its last instants land before a copy
// of an already-consumed tuple can be surrendered.
func (s *Set) FailoverHold(p tuple.Template, now time.Time) (space.Hold, bool) {
	s.mu.Lock()
	cands := make([]*backup, 0, 4)
	for _, c := range s.copies {
		if !c.held && now.Before(c.expiry) && p.Matches(c.t) {
			cands = append(cands, c)
		}
	}
	s.mu.Unlock()

	for _, c := range cands {
		if !s.maySupersede(c) {
			// The chain above us has a survivor: restart the grace clock, so
			// a later death is again given time to settle in-flight takes.
			s.mu.Lock()
			c.superAt = time.Time{}
			s.mu.Unlock()
			continue
		}
		// The proof may have waited on probes: read the clock after them.
		now = s.h.Queue.Now()
		s.mu.Lock()
		if s.copies[c.key] != c || c.held || !now.Before(c.expiry) {
			s.mu.Unlock()
			continue
		}
		// Failover grace: the proof that every higher-ranked holder is dead
		// says nothing about takes they served just before dying, whose
		// requester-driven invalidations may still be in flight. Serving is
		// deferred one ContactTimeout from when the proof first held — any
		// such cancel lands (and deletes this copy) inside that window, and
		// the requester's retransmissions retry us right after it.
		if c.superAt.IsZero() {
			c.superAt = now
			s.mu.Unlock()
			continue
		}
		if now.Sub(c.superAt) < s.h.ContactTimeout {
			s.mu.Unlock()
			continue
		}
		c.held = true
		s.mu.Unlock()
		return &hold{s: s, c: c}, true
	}
	return nil, false
}

// Identity returns the replica identity a found reply serving h carries,
// for the requester — the one node guaranteed alive at consumption — to
// invalidate on accept, even when the origin dies right after serving: a
// copy's own, for a hold FailoverHold made, and otherwise the node's
// address and the held entry's space id, which needs no lookup (Set). A
// tuple never replicated yields an identity no holder has, whose
// invalidation fences a key nobody uses. A hold with no space entry
// behind it has none.
func (s *Set) Identity(h space.Hold) (wire.Addr, uint64) {
	if rh, ok := h.(*hold); ok {
		return rh.c.key.origin, rh.c.key.seq
	}
	if h.ID() == 0 {
		return "", 0
	}
	return s.h.Addr, h.ID()
}

// ServeLocal serves an operation from this node's own replica store when
// the local space missed: the last surviving holder of a copy may be the
// requester itself, which the propagation walk never contacts. A read
// takes any live copy; a take passes the same supersede proof as a remote
// failover, then tells the surviving siblings. now is the op's reading.
func (s *Set) ServeLocal(take bool, p tuple.Template, now time.Time) (tuple.Tuple, bool) {
	if !take {
		return s.Read(p, now)
	}
	h, ok := s.FailoverHold(p, now)
	if !ok {
		return tuple.Tuple{}, false
	}
	t, k := h.Tuple(), h.(*hold).c.key
	h.Accept()
	s.Consumed(&wire.Message{From: s.h.Addr, Tuple: t, ReplOrigin: k.origin, ReplSeq: k.seq}, now)
	return t, true
}

// maySupersede reports whether this instance is the highest-ranked
// *surviving* holder of c — the only position allowed to destructively
// serve it.
func (s *Set) maySupersede(c *backup) bool {
	chain := s.holdersFor(s.ringNow(), c.key.origin, c.tag, c.arity)
	pos := slices.Index(chain, s.h.Addr)
	if pos < 0 {
		// The ring moved on and no longer ranks us for this key: stay
		// conservative — serve nothing, let the ranked holders (which the
		// sweeper is populating) take over and this copy expire.
		return false
	}
	for _, a := range chain[:pos] {
		if !s.peerDead(a) {
			return false
		}
	}
	return true
}

// peerDead is the proof-of-death test gating destructive failover: the
// peer is under active suspicion, or a probe — an announce like any
// other, carrying the node's caps — fails fast with ErrUnreachable (the
// transport knows the endpoint is gone). A peer that is merely slow
// answers neither condition — reads fail over freely, but takes stay with
// the primary until it is demonstrably dead.
func (s *Set) peerDead(a wire.Addr) bool {
	if a == s.h.Addr {
		return false
	}
	if s.h.List.Suspected(a) {
		return true
	}
	return errors.Is(s.h.Send(a, s.h.Announce()), transport.ErrUnreachable)
}

// --- anti-entropy -------------------------------------------------------

// Joined reconciles a peer against the fence table on its first announce
// since it joined the responder list, the earliest a replicated cancel
// can be addressed to it: if we fenced identities originated by it (we
// served failover takes while it was gone), it must withdraw those tuples
// instead of serving them — closing the split-brain window on the join
// itself.
func (s *Set) Joined(addr wire.Addr) {
	now := s.h.Queue.Now()
	s.mu.Lock()
	keys := make([]key, 0)
	for k, exp := range s.fences {
		if k.origin == addr && now.Before(exp) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	for _, k := range keys {
		_ = s.h.Send(addr, s.cancel(k))
	}
}

// cancel returns a fresh invalidation of k: a TCancel carrying its
// identity, which every receiver answers by dropping and fencing its copy.
func (s *Set) cancel(k key) *wire.Message {
	return &wire.Message{
		Type: wire.TCancel, ID: s.h.NextID(), From: s.h.Addr,
		ReplOrigin: k.origin, ReplSeq: k.seq,
	}
}

// RepairSweep returns the repair sweep, for a test to hurry, stop or run.
func (s *Set) RepairSweep() *clock.Sweep { return s.repair }

// repairPass is one pass of the anti-entropy sweep. A leave
// shifts replica ranks, which the next pass re-places. One pass:
//
//  1. prune expired copies, fences, outs, and abandoned ack flights;
//  2. re-send unacked write-throughs for own outs toward the current
//     ring holders (covers lost replicates, refused admissions, and
//     membership churn moving a placement);
//  3. adopt copies whose origin is dead: the surviving holders
//     re-replicate them to the current chain, so availability survives
//     losing the origin and then a backup.
func (s *Set) repairPass() {
	if s.h.Stopping() {
		return
	}
	now, period := s.h.Queue.Now(), s.repair.Period()
	ring := s.ringNow()

	type job struct {
		to  wire.Addr
		msg *wire.Message
	}
	var jobs []job
	var adopt []*backup

	s.mu.Lock()
	for k, exp := range s.fences {
		if !now.Before(exp) {
			delete(s.fences, k)
		}
	}
	for k, c := range s.copies {
		if !c.held && !now.Before(c.expiry) {
			delete(s.copies, k)
		}
	}
	for id, p := range s.pend {
		if now.Sub(p.at) > fenceTTL {
			delete(s.pend, id)
		}
	}
	for seq, o := range s.outs {
		if !now.Before(o.expiry) {
			delete(s.outs, seq)
			continue
		}
		for _, a := range s.backupsFor(ring, o.tag, o.arity) {
			if o.acked[a] {
				continue
			}
			if last, ok := o.lastSend[a]; ok && now.Sub(last) < period {
				continue
			}
			jobs = append(jobs, job{to: a, msg: s.replicateLocked(o, a, now)})
		}
	}
	for _, c := range s.copies {
		if !c.held && now.Before(c.expiry) {
			adopt = append(adopt, c)
		}
	}
	s.mu.Unlock()

	for _, j := range jobs {
		if s.h.Send(j.to, j.msg) == nil {
			s.ctr.repairs.Inc()
		}
	}

	// Adoption: probing each distinct origin once per sweep keeps the
	// cost linear in membership, not copies.
	dead := make(map[wire.Addr]bool)
	for _, c := range adopt {
		origin := c.key.origin
		d, probed := dead[origin]
		if !probed {
			d = s.peerDead(origin)
			dead[origin] = d
		}
		if !d {
			continue
		}
		// The origin is dead, so it no longer counts toward R: the live
		// replica set is the ring's first R placements outright (the
		// probe above evicts the origin, so it drops out of Place as the
		// membership converges). Ranking self out of the chain would
		// otherwise leave a copy whose only live holder is this node.
		for _, a := range ring.Place(c.tag, c.arity, s.h.Replicas) {
			if a == s.h.Addr || a == origin {
				continue
			}
			s.mu.Lock()
			last, ok := c.lastRepair[a]
			if ok && now.Sub(last) < period {
				s.mu.Unlock()
				continue
			}
			c.lastRepair[a] = now
			expiry := c.expiry
			s.mu.Unlock()
			if s.h.Send(a, &wire.Message{
				Type: wire.TOut, ID: s.h.NextID(), From: s.h.Addr,
				TTL: expiry.Sub(now), Tuple: c.t,
				ReplOrigin: origin, ReplSeq: c.key.seq,
			}) == nil {
				s.ctr.repairs.Inc()
			}
		}
	}
}
