package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/routing"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// This file implements leased replica sets (DESIGN.md §13): soft-state
// tuple availability under node loss, built from the pieces the system
// already has — leases bound every copy's life, the hold protocol keeps
// takes effectively-once, and the visibility event stream drives
// re-ranking.
//
// The model: the instance that performs an out stays the tuple's
// *primary* (authoritative holder, exactly as before), and additionally
// writes a copy through to the R-1 next holders that the consistent-hash
// ring (routing.Ring) places for the tuple's (tag, arity) key. Copies
// live in a separate replica store — never in the main space — so they
// are invisible to ordinary destructive serving and conservation
// arguments are untouched. A copy expires at the out lease's deadline:
// replica staleness is bounded by lease expiry, the paper's §2.5
// argument applied to replication.
//
//   - rd/rdp: a responder that misses in its own space may answer from
//     an unexpired replica copy (repl.stale_reads).
//   - in/inp: destructive serving from a copy happens only on a
//     *failover take*: the op carries the Failover flag (set on every
//     unicast contact of a destructive take, never on multicast), and the
//     holder serves only if every holder ranked above it — the origin
//     first, then higher-ranked ring backups — is provably dead
//     (suspected, or a probe fails fast with ErrUnreachable). The copy
//     is then surrendered through the ordinary hold protocol, and on
//     accept the key is *fenced*: late replicates for it are refused
//     until the lease would have expired anyway, and if the dead origin
//     ever rejoins it is sent an invalidation so it withdraws the
//     consumed tuple instead of resurrecting it.
//   - anti-entropy: a periodic sweep re-sends unacked write-throughs
//     toward wherever the current ring says the holders are, and backups
//     that hold copies for a dead origin adopt them — re-replicating to
//     the surviving ring holders so availability survives sequential
//     losses.
//
// R=1 (the default) constructs none of this and sets no replica field on
// any frame.

// maxReplCopies bounds the replica store. Replication is soft state: an
// overflowing store refuses further copies (the origin keeps them
// unacked and retries later) rather than evicting live ones.
const maxReplCopies = 8192

// replKey identifies a replicated tuple: the instance whose out created
// it plus that origin's write sequence number.
type replKey struct {
	origin wire.Addr
	seq    uint64
}

// replOut is a tuple this instance originated and is responsible for
// keeping replicated while its lease lives.
type replOut struct {
	seq    uint64 // == its local store id (authoritative copy)
	t      tuple.Tuple
	expiry time.Time
	tag    string
	arity  int
	// targets is the initial write-through set; done closes when every
	// target acked or definitively refused, or when the wait's bound — the
	// record's entry on the instance's deadline queue — expires first,
	// releasing a synchronous Out.
	targets []wire.Addr
	done    chan struct{}
	settled bool
	clock.Deadline
	r *replicator
	// acked tracks which holders confirmed a copy; refused tracks
	// holders that answered with a definitive refusal (the copy does NOT
	// exist there — a failed target, observable, that the sweeper keeps
	// re-placing); lastSend paces re-sends per holder so the sweeper
	// never hammers a slow peer.
	acked    map[wire.Addr]bool
	refused  map[wire.Addr]bool
	lastSend map[wire.Addr]time.Time
}

// replCopy is a replica copy held for another origin.
type replCopy struct {
	key    replKey
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

// pendRepl is a replicate frame awaiting its ack.
type pendRepl struct {
	seq uint64
	to  wire.Addr
	at  time.Time
}

// replicator is the per-instance replication state. Its mutex is a leaf:
// nothing is called while holding it that takes Instance.mu or any
// discovery/list lock.
type replicator struct {
	i *Instance
	n int // replica-set size R (≥ 2)

	// The replica sequence of an own out IS its local space id: unique,
	// nonzero, and derivable from a space.Hold with no side lookup — so a
	// take served in the window before replWriteThrough registers its
	// record still stamps the correct identity onto the reply.
	mu      sync.Mutex
	outs    map[uint64]*replOut // own replicated outs, by seq (== space id)
	copies  map[replKey]*replCopy
	fences  map[replKey]time.Time // refused identities → fence expiry
	pend    map[uint64]pendRepl   // replicate ack ID → flight info
	ring    *routing.Ring
	ringRev uint64
	repair  sweep // the anti-entropy sweep (repairSweep)
	// placing counts the outs between the space's Out and their record
	// here, which may hand the tuple to a parked taker that removes it for
	// good first; a removal finding no record meanwhile leaves its id in
	// early, for its out to find (leavePlacing) and replicate nothing.
	placing atomic.Int32
	early   map[uint64]struct{}
}

func newReplicator(i *Instance) *replicator {
	return &replicator{
		i:      i,
		n:      i.cfg.Replicas,
		outs:   make(map[uint64]*replOut),
		copies: make(map[replKey]*replCopy),
		fences: make(map[replKey]time.Time),
		pend:   make(map[uint64]pendRepl),
		early:  make(map[uint64]struct{}),
		repair: sweep{i: i, every: i.tm.repair, pass: i.repairSweep},
	}
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

// Replication snapshots the replication machinery. The zero report is
// returned when replication is off (R=1).
func (i *Instance) Replication() ReplicationReport {
	r := i.repl
	if r == nil {
		return ReplicationReport{}
	}
	rep := ReplicationReport{
		Writes:        i.counted(trace.CtrReplWrites),
		FailoverTakes: i.counted(trace.CtrReplFailoverTakes),
		Repairs:       i.counted(trace.CtrReplRepairs),
		FencedHolds:   i.counted(trace.CtrReplFencedHolds),
		StaleReads:    i.counted(trace.CtrReplStaleReads),
		WriteRefusals: i.counted(trace.CtrReplWriteRefused),
	}
	ring := r.ringNow()
	r.mu.Lock()
	rep.Outs = len(r.outs)
	rep.Copies = len(r.copies)
	rep.Fences = len(r.fences)
	for _, ro := range r.outs {
		for _, a := range r.backupsForLocked(ring, ro.tag, ro.arity) {
			if !ro.acked[a] {
				rep.UnderReplicated++
				break
			}
		}
	}
	r.mu.Unlock()
	return rep
}

// ReplicaCopies counts unexpired replica copies matching p, for
// experiments asserting replication converged.
func (i *Instance) ReplicaCopies(p tuple.Template) int {
	r := i.repl
	if r == nil {
		return 0
	}
	now := i.clk.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.copies {
		if now.Before(c.expiry) && p.Matches(c.t) {
			n++
		}
	}
	return n
}

// replTupleKey derives a tuple's ring placement key: the leading
// concrete string field (the idiomatic Linda discriminator) plus arity.
// Tuples with a non-string lead spread under the empty tag.
func replTupleKey(t tuple.Tuple) (string, int) {
	tag, _ := t.StringAt(0)
	return tag, t.Arity()
}

// replTemplateKey derives the placement key a template selects, when it
// selects exactly one: a formal leading field matches tuples under any
// tag, so no single key exists and ok is false.
func replTemplateKey(p tuple.Template) (string, int, bool) {
	f, err := p.Field(0)
	if err != nil || f.Formal() {
		return "", 0, false
	}
	tag, _ := f.StringValue()
	return tag, p.Arity(), true
}

// ringNow returns the placement ring for the current membership,
// rebuilding it when the responder list's revision moved. Membership is
// everyone the list knows — including suspected and demoted peers, who
// still hold their replicas — plus this instance.
func (r *replicator) ringNow() *routing.Ring {
	rev := r.i.list.Revision()
	r.mu.Lock()
	if r.ring != nil && r.ringRev == rev {
		ring := r.ring
		r.mu.Unlock()
		return ring
	}
	r.mu.Unlock()
	members := append(r.i.list.Members(), r.i.Addr())
	relays := make(map[wire.Addr]bool)
	r.i.mu.Lock()
	for _, a := range r.i.relays {
		relays[a] = true
	}
	r.i.mu.Unlock()
	// Backbone weighting: relay/backbone nodes take double the placement
	// share — they are the persistently visible, well-connected members
	// (routing.Selector's criteria), exactly where replicas are worth
	// the most.
	ring := routing.BuildRing(members, func(a wire.Addr) int {
		if relays[a] {
			return 2
		}
		return 1
	})
	r.mu.Lock()
	r.ring, r.ringRev = ring, rev
	r.mu.Unlock()
	return ring
}

// holdersFor returns the ranked holder chain for a replicated tuple: the
// origin first (authoritative), then ring-placed backups in rank order,
// R holders total. Every node computes the same chain from the same
// membership snapshot — the basis of coordination-free failover.
func (r *replicator) holdersFor(ring *routing.Ring, origin wire.Addr, tag string, arity int) []wire.Addr {
	placed := ring.Place(tag, arity, r.n)
	chain := make([]wire.Addr, 0, r.n)
	chain = append(chain, origin)
	for _, a := range placed {
		if a == origin {
			continue
		}
		if len(chain) >= r.n {
			break
		}
		chain = append(chain, a)
	}
	return chain
}

// backupsForLocked returns the backup holders (the chain minus self) for
// a tuple this instance originated. Safe with or without r.mu held — it
// touches only the immutable ring.
func (r *replicator) backupsForLocked(ring *routing.Ring, tag string, arity int) []wire.Addr {
	return r.holdersFor(ring, r.i.Addr(), tag, arity)[1:]
}

// appendHolders appends the ring holders for (tag, arity) to a contact
// queue, skipping self and addresses already queued. A suspected backup
// is skipped by the ordinary responder snapshot but may still be alive
// and holding the copy — the failover walk should reach it.
func (r *replicator) appendHolders(queue []wire.Addr, tag string, arity int) []wire.Addr {
	ring := r.ringNow()
	for _, a := range ring.Place(tag, arity, r.n) {
		if a == r.i.Addr() {
			continue
		}
		dup := false
		for _, q := range queue {
			if q == a {
				dup = true
				break
			}
		}
		if !dup {
			queue = append(queue, a)
		}
	}
	return queue
}

// --- origin side: write-through and invalidation ------------------------

// leavePlacing closes an out's window (place). Unless the Out failed (ro
// nil), the node is closing or the tuple was removed inside the window,
// it makes ro the out's record and reports true.
func (r *replicator) leavePlacing(ro *replOut, closing bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.placing.Add(-1) == 0 {
		defer clear(r.early)
	}
	if ro == nil || closing {
		return false
	}
	if _, removed := r.early[ro.seq]; removed {
		return false
	}
	r.outs[ro.seq] = ro
	return true
}

// replWriteThrough replicates a freshly placed tuple to its ring backups
// and, with await, waits (bounded by ContactTimeout) for their acks — so
// when Out returns, a kill of this node no longer strands the tuple. The
// wait is best-effort: on timeout the out stands and the sweeper finishes
// the job. A Close that began before it returns is another matter: the
// node's own copy goes with it, and from the moment Close starts no record
// is made here and no replicate can leave, so unless a backup acked a copy
// the write may have survived nowhere — ErrClosed. Without await it only
// sends: a placement made while serving a frame must not block on another
// node's reply (DESIGN.md §9).
//
// The replicates ride the out's own lease, expiring at its deadline: each
// spends a unit of its remote budget, remotes — the "replication lease"
// bounding communication effort exactly as §2.5 bounds everything else.
//
// The tuple is tracked first. An out written while isolated still gets a
// record, so the sweep replicates it once peers appear. The tuple may
// already have been taken since the store write (a waiting local taker),
// and copies of it would be stranded: the removal report found no record
// and left the id in early, so no record is made (leavePlacing). A later
// removal finds the record and sends the invalidations.
func (i *Instance) replWriteThrough(sid uint64, t tuple.Tuple, expiry time.Time, remotes int, await bool) (err error) {
	r := i.repl
	tag, arity := replTupleKey(t)
	ro := &replOut{
		seq: sid, t: t.Copy(), expiry: expiry, tag: tag, arity: arity, r: r,
		done:  make(chan struct{}),
		acked: make(map[wire.Addr]bool), refused: make(map[wire.Addr]bool),
		lastSend: make(map[wire.Addr]time.Time),
	}
	live := r.leavePlacing(ro, i.isClosed())
	defer func() {
		r.mu.Lock()
		acked := len(ro.acked) > 0
		r.mu.Unlock()
		if err == nil && !acked && i.isClosed() {
			err = ErrClosed
		}
	}()
	if !live {
		return nil
	}
	targets := r.backupsForLocked(r.ringNow(), ro.tag, ro.arity)
	if len(targets) == 0 {
		return nil // nobody visible to hold a copy; the sweeper catches up
	}

	now := i.clk.Now()
	sent := ro.targets[:0]
	for _, a := range targets {
		if remotes <= 0 {
			break // replication effort is bounded by the out lease
		}
		remotes--
		ackID := i.nextOp()
		r.mu.Lock()
		r.pend[ackID] = pendRepl{seq: ro.seq, to: a, at: now}
		ro.lastSend[a] = now
		r.mu.Unlock()
		if i.send(a, &wire.Message{
			Type: wire.TOut, ID: ackID, From: i.Addr(),
			TTL: ro.expiry.Sub(now), Tuple: ro.t,
			ReplOrigin: i.Addr(), ReplSeq: ro.seq,
		}) != nil {
			r.mu.Lock()
			delete(r.pend, ackID)
			r.mu.Unlock()
			continue // unreachable: the sweeper re-places the copy later
		}
		sent = append(sent, a)
		i.ctr.replWrites.Inc()
	}
	r.mu.Lock()
	ro.targets = sent
	r.settleLocked(ro)
	done := ro.done
	r.mu.Unlock()

	i.deadlines.Schedule(ro, i.clk.Now().Add(i.cfg.ContactTimeout))
	if !await {
		return nil // Expire still counts a target silent through the window
	}
	defer i.deadlines.Cancel(ro)
	// Settled, or timed out (Expire): either way the out stands, and the
	// sweeper converges what the wait did not see acked — unless the node
	// is closing, which the deferred check answers.
	select {
	case <-done:
	case <-i.stopped:
	}
	return nil
}

// Expire implements clock.Entry: the write-through wait ran out. Only the
// wait is best-effort, not the write: a target silent through the whole
// window — a crashed peer or a lost frame — is a *failed* write-through,
// counted here so the silence is observable instead of reading as
// success. The out stands and the sweeper keeps re-placing the copy.
func (ro *replOut) Expire() {
	r := ro.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if ro.settled {
		return
	}
	for _, a := range ro.targets {
		if !ro.acked[a] && !ro.refused[a] {
			r.i.ctr.replWriteUnacked.Inc()
		}
	}
	ro.settled = true
	close(ro.done)
}

// settleLocked closes ro.done once every initial target acked or
// definitively refused — a refusal is an answer, so a synchronous Out
// must not run out the clock waiting for an ack that can never arrive.
// Caller holds r.mu.
func (r *replicator) settleLocked(ro *replOut) {
	if ro.settled || ro.done == nil {
		return
	}
	for _, a := range ro.targets {
		if !ro.acked[a] && !ro.refused[a] {
			return
		}
	}
	ro.settled = true
	close(ro.done)
}

// replFinishAck settles a replicate-frame ack, reporting whether id
// belonged to one. Mirrors finishAccept in the handleResult path. A
// not-OK ack ("replication disabled", "fenced", "replica store full",
// "expired") is a definitive refusal: the copy does not exist at that
// backup. It is recorded as a failed target — counted, settling the
// synchronous wait, and leaving the target unacked so the sweeper keeps
// re-placing it — never dropped as if the write had quietly succeeded.
func (i *Instance) replFinishAck(id uint64, m *wire.Message) bool {
	r := i.repl
	if r == nil {
		return false
	}
	r.mu.Lock()
	p, ok := r.pend[id]
	if ok {
		delete(r.pend, id)
		if ro := r.outs[p.seq]; ro != nil {
			if m.OK {
				ro.acked[p.to] = true
				delete(ro.refused, p.to)
			} else {
				ro.refused[p.to] = true
				i.ctr.replWriteRefused.Inc()
			}
			r.settleLocked(ro)
		}
	}
	r.mu.Unlock()
	return ok
}

// replOnLocalRemoval is the origin half of invalidation: the
// authoritative tuple left the space (taken locally or remotely,
// reclaimed, or revoked), so every holder of a copy is told to drop it.
// Called from the space's removal report.
func (i *Instance) replOnLocalRemoval(sid uint64) {
	r := i.repl
	if r == nil {
		return
	}
	r.mu.Lock()
	ro := r.outs[sid]
	if ro == nil {
		if r.placing.Load() > 0 {
			r.early[sid] = struct{}{}
		}
		r.mu.Unlock()
		return
	}
	delete(r.outs, sid)
	holders := make(map[wire.Addr]bool)
	for a := range ro.lastSend { // every acked holder was sent one
		holders[a] = true
	}
	r.mu.Unlock()
	if i.isClosed() {
		return
	}
	// Belt and braces with the taker's own invalidation round: sends are
	// idempotent at the receiver (drop + fence).
	for _, a := range r.backupsForLocked(r.ringNow(), ro.tag, ro.arity) {
		holders[a] = true
	}
	for a := range holders {
		if a == i.Addr() {
			continue
		}
		_ = i.send(a, &wire.Message{
			Type: wire.TCancel, ID: i.nextOp(), From: i.Addr(),
			ReplOrigin: i.Addr(), ReplSeq: sid,
		})
	}
}

// --- taker side: sibling invalidation on accept -------------------------

// replInvalidateSiblings runs after this instance accepted a take of a
// replicated tuple (the found reply carried its identity): every other
// holder — the ring backups and, on a failover take, the possibly-dead
// origin — is told the tuple is consumed. The requester is the one node
// guaranteed alive at consumption time, which is what closes the
// origin-died-after-replying window; a requester that dies right here
// leaves copies to expire with their lease (the documented staleness
// bound).
// Like the hold-protocol accepts, these sends are settlement traffic:
// they finalise a consumption that already happened, so they ride
// outside the operation lease's remote budget — a budget-exhausted
// walk must not leave consumed copies undead.
func (i *Instance) replInvalidateSiblings(m *wire.Message) {
	r := i.repl
	if r == nil || m.ReplSeq == 0 {
		return
	}
	key := replKey{origin: m.ReplOrigin, seq: m.ReplSeq}
	tag, arity := replTupleKey(m.Tuple)
	ring := r.ringNow()
	targets := make(map[wire.Addr]bool)
	for _, a := range r.holdersFor(ring, key.origin, tag, arity) {
		targets[a] = true
	}
	// Adoption after origin loss places copies on the ring's first R
	// slots outright, so cover that set too; and the requester itself may
	// be a holder with a now-stale copy.
	for _, a := range ring.Place(tag, arity, r.n) {
		targets[a] = true
	}
	targets[key.origin] = true
	targets[i.Addr()] = true
	delete(targets, m.From) // the server settles its own copy via the hold
	inval := &wire.Message{
		Type: wire.TCancel, ID: i.nextOp(), From: i.Addr(),
		ReplOrigin: key.origin, ReplSeq: key.seq,
	}
	for a := range targets {
		if a == i.Addr() {
			i.replInvalidate(inval)
			continue
		}
		_ = i.send(a, inval)
	}
	// The unicast set above is computed on THIS node's ring view, but the
	// copies were placed by the origin's view — and adoption repair may
	// have spread them further. Views diverge around exactly the failures
	// that trigger failover, so finish with a multicast: every visible
	// holder drops and fences the identity, and nodes that never held it
	// fence pre-emptively against late repair sends.
	_, _ = i.ep.Multicast(inval)
}

// --- holder side: copies, reads, failover takes, fences -----------------

// handleReplicate admits a replicate/repair write-through (a TOut frame
// carrying a replica identity): the copy is stored as soft state keyed
// by that identity, expiring with the origin's lease. Re-delivery is
// idempotent (same key, same tuple). A fenced identity — consumed via a
// failover take served here, or invalidated — is refused, which is what
// keeps a slow repair from resurrecting a consumed tuple.
func (i *Instance) handleReplicate(m *wire.Message) {
	ack := &wire.Message{Type: wire.TAck, ID: m.ID, From: i.Addr()}
	r := i.repl
	if r == nil {
		ack.Err = "replication disabled"
		_ = i.send(m.From, ack)
		return
	}
	if m.TTL <= 0 {
		ack.Err = "expired"
		_ = i.send(m.From, ack)
		return
	}
	key := replKey{origin: m.ReplOrigin, seq: m.ReplSeq}
	now := i.clk.Now()
	expiry := now.Add(m.TTL)
	tag, arity := replTupleKey(m.Tuple)

	r.mu.Lock()
	if exp, fenced := r.fences[key]; fenced && now.Before(exp) {
		r.mu.Unlock()
		i.ctr.replFencedHolds.Inc()
		ack.Err = "fenced"
		_ = i.send(m.From, ack)
		return
	}
	c := r.copies[key]
	if c == nil {
		if len(r.copies) >= maxReplCopies {
			r.mu.Unlock()
			ack.Err = "replica store full"
			_ = i.send(m.From, ack)
			return
		}
		// Retention boundary: the copy outlives the frame that carried it.
		c = &replCopy{
			key: key, t: m.Tuple.Copy(), tag: tag, arity: arity,
			lastRepair: make(map[wire.Addr]time.Time),
		}
		r.copies[key] = c
	}
	if expiry.After(c.expiry) {
		c.expiry = expiry
	}
	r.mu.Unlock()
	i.ctr.replicaMsgs.Inc()
	ack.OK = true
	_ = i.send(m.From, ack)
}

// replInvalidate drops the identified copy and fences its identity. On
// the origin itself, an inbound invalidation means the tuple was
// consumed elsewhere during a failover (this node was partitioned away
// or is rejoining): the authoritative copy is withdrawn rather than
// resurrected — the reconciliation half of fencing.
func (i *Instance) replInvalidate(m *wire.Message) {
	r := i.repl
	if r == nil {
		return
	}
	key := replKey{origin: m.ReplOrigin, seq: m.ReplSeq}
	if key.origin == i.Addr() {
		r.mu.Lock()
		ro := r.outs[key.seq]
		if ro != nil {
			delete(r.outs, key.seq)
		}
		r.mu.Unlock()
		if ro != nil {
			i.local.Remove(ro.seq)
		}
		return
	}
	now := i.clk.Now()
	fence := now.Add(dedupTTL)
	r.mu.Lock()
	if c := r.copies[key]; c != nil {
		delete(r.copies, key)
		if c.expiry.After(fence) {
			fence = c.expiry
		}
	}
	r.fences[key] = fence
	r.mu.Unlock()
}

// replRdp answers a read from the replica store: any live replica may
// serve rd (DESIGN.md §13) — the copy is as fresh as its lease bounds.
func (i *Instance) replRdp(p tuple.Template) (tuple.Tuple, bool) {
	r := i.repl
	if r == nil {
		return tuple.Tuple{}, false
	}
	now := i.clk.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.copies {
		if !c.held && now.Before(c.expiry) && p.Matches(c.t) {
			i.ctr.replStaleReads.Inc()
			return c.t, true
		}
	}
	return tuple.Tuple{}, false
}

// replHold surrenders a replica copy through the hold protocol: Accept
// consumes the copy and fences its identity; Release returns it to
// service (another responder won the take).
type replHold struct {
	i       *Instance
	c       *replCopy
	settled atomic.Bool
}

func (h *replHold) Tuple() tuple.Tuple { return h.c.t }

// ID implements space.Hold; a replica copy is not a space entry.
func (h *replHold) ID() uint64 { return 0 }

func (h *replHold) Accept() {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	r := h.i.repl
	r.mu.Lock()
	if r.copies[h.c.key] == h.c {
		delete(r.copies, h.c.key)
	}
	// Fence until the tuple's own lease would have expired: no late
	// replicate or repair of this identity can outlive the fence, so a
	// consumed tuple cannot be resurrected through this node.
	if h.c.expiry.After(r.fences[h.c.key]) {
		r.fences[h.c.key] = h.c.expiry
	}
	r.mu.Unlock()
	h.i.ctr.replFailoverTakes.Inc()
}

func (h *replHold) Release() {
	if !h.settled.CompareAndSwap(false, true) {
		return
	}
	r := h.i.repl
	r.mu.Lock()
	h.c.held = false
	r.mu.Unlock()
}

// replFailoverHold serves a destructive failover take from the replica
// store. The guard that keeps takes effectively-once without a
// coordination round: this node surrenders a copy only when every holder
// ranked above it in the chain — the origin, then higher-ranked ring
// backups — is provably dead (suspected by discovery, or a probe fails
// fast with ErrUnreachable). Two backups can only disagree about that
// while their membership views diverge, a window the C5 soak measures
// and lease expiry bounds; a merely-slow (gray, partitioned-from-us)
// primary keeps its takes because the probe still reaches it. On top of
// the proof sits a ContactTimeout-sized grace (see c.superAt): the first
// attempt after the chain dies arms it and refuses, so invalidations
// from takes the dead origin served in its last instants land before a
// copy of an already-consumed tuple can be surrendered.
func (i *Instance) replFailoverHold(p tuple.Template) (*replHold, replKey, bool) {
	r := i.repl
	if r == nil {
		return nil, replKey{}, false
	}
	now := i.clk.Now()
	r.mu.Lock()
	cands := make([]*replCopy, 0, 4)
	for _, c := range r.copies {
		if !c.held && now.Before(c.expiry) && p.Matches(c.t) {
			cands = append(cands, c)
		}
	}
	r.mu.Unlock()

	for _, c := range cands {
		if !i.replMaySupersede(c) {
			// The chain above us has a survivor: restart the grace clock, so
			// a later death is again given time to settle in-flight takes.
			r.mu.Lock()
			c.superAt = time.Time{}
			r.mu.Unlock()
			continue
		}
		now = i.clk.Now()
		r.mu.Lock()
		if r.copies[c.key] != c || c.held || !now.Before(c.expiry) {
			r.mu.Unlock()
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
			r.mu.Unlock()
			continue
		}
		if now.Sub(c.superAt) < i.cfg.ContactTimeout {
			r.mu.Unlock()
			continue
		}
		c.held = true
		r.mu.Unlock()
		return &replHold{i: i, c: c}, c.key, true
	}
	return nil, replKey{}, false
}

// replIdentityFor returns the replica identity of a space-held tuple
// this node originated. Stamped onto the origin's own found replies so
// the requester — the one node guaranteed alive at consumption — drives
// sibling invalidation even when the origin dies right after serving.
// Because the replica seq IS the space id, the identity needs no lookup
// in replication state: a waiter that holds and serves the tuple in the
// window before replWriteThrough registers its record still stamps the
// identity its copies will carry. Tuples that were never replicated
// yield an identity no holder has — the requester's invalidation round
// then fences a key nobody uses, which is harmless.
func (i *Instance) replIdentityFor(h space.Hold) (wire.Addr, uint64) {
	if i.repl == nil || h == nil || h.ID() == 0 {
		return "", 0 // no replication, a served read, or no space entry behind the hold
	}
	return i.Addr(), h.ID()
}

// replServeLocal serves an operation from this node's own replica store
// when the local space missed: the last surviving holder of a copy may
// be the requester itself, which the propagation walk never contacts.
// Reads take any live copy; destructive takes pass the same supersede
// proof as a remote failover, then tell the surviving siblings.
func (i *Instance) replServeLocal(code wire.OpCode, p tuple.Template) (Result, bool) {
	if !code.Removes() {
		if t, ok := i.replRdp(p); ok {
			return Result{Tuple: t, From: i.Addr()}, true
		}
		return Result{}, false
	}
	h, k, ok := i.replFailoverHold(p)
	if !ok {
		return Result{}, false
	}
	t := h.Tuple()
	h.Accept()
	i.replInvalidateSiblings(&wire.Message{
		From: i.Addr(), Tuple: t, ReplOrigin: k.origin, ReplSeq: k.seq,
	})
	return Result{Tuple: t, From: i.Addr()}, true
}

// replMaySupersede reports whether this instance is the highest-ranked
// *surviving* holder of c — the only position allowed to destructively
// serve it.
func (i *Instance) replMaySupersede(c *replCopy) bool {
	r := i.repl
	chain := r.holdersFor(r.ringNow(), c.key.origin, c.tag, c.arity)
	self := i.Addr()
	pos := -1
	for k, a := range chain {
		if a == self {
			pos = k
			break
		}
	}
	if pos < 0 {
		// The ring moved on and no longer ranks us for this key: stay
		// conservative — serve nothing, let the ranked holders (which the
		// sweeper is populating) take over and this copy expire.
		return false
	}
	for _, a := range chain[:pos] {
		if !i.replPeerDead(a) {
			return false
		}
	}
	return true
}

// replPeerDead is the proof-of-death test gating destructive failover:
// the peer is under active suspicion, or a probe fails fast with
// ErrUnreachable (the transport knows the endpoint is gone). A peer that
// is merely slow answers neither condition — reads fail over freely, but
// takes stay with the primary until it is demonstrably dead.
func (i *Instance) replPeerDead(a wire.Addr) bool {
	if a == i.Addr() {
		return false
	}
	if i.list.Suspected(a) {
		return true
	}
	// The probe is an announce like any other: without our caps the
	// peer would read it as below the wire floor.
	probe := &wire.Message{Type: wire.TAnnounce, From: i.Addr(), Persistent: i.cfg.Persistent}
	i.stampAnnounce(probe)
	err := i.send(a, probe)
	return errors.Is(err, transport.ErrUnreachable)
}

// --- anti-entropy -------------------------------------------------------

// replOnJoin reconciles a peer against the fence table on its first
// announce since it joined the responder list (first), the earliest a
// replicated cancel can be addressed to it: if we fenced identities
// originated by it (we served failover takes while it was gone), it must
// withdraw those tuples instead of serving them — closing the split-brain
// window on the join itself.
func (i *Instance) replOnJoin(addr wire.Addr, first bool) {
	r := i.repl
	if !first || r == nil {
		return
	}
	now := i.clk.Now()
	r.mu.Lock()
	keys := make([]replKey, 0)
	for key, exp := range r.fences {
		if key.origin == addr && now.Before(exp) {
			keys = append(keys, key)
		}
	}
	r.mu.Unlock()
	for _, key := range keys {
		_ = i.send(addr, &wire.Message{
			Type: wire.TCancel, ID: i.nextOp(), From: i.Addr(),
			ReplOrigin: key.origin, ReplSeq: key.seq,
		})
	}
}

// repairSweep is the anti-entropy sweep's pass, every r.repair.every. A
// leave shifts replica ranks, which the next pass re-places. One pass:
//
//  1. prune expired copies, fences, outs, and abandoned ack flights;
//  2. re-send unacked write-throughs for own outs toward the current
//     ring holders (covers lost replicates, refused admissions, and
//     membership churn moving a placement);
//  3. adopt copies whose origin is dead: the surviving holders
//     re-replicate them to the current chain, so availability survives
//     losing the origin and then a backup.
func (i *Instance) repairSweep() {
	if i.stopping() {
		return
	}
	r := i.repl
	now := i.clk.Now()
	ring := r.ringNow()

	type job struct {
		to  wire.Addr
		msg *wire.Message
	}
	var jobs []job
	type adoptee struct {
		c      *replCopy
		origin wire.Addr
	}
	var adopt []adoptee

	r.mu.Lock()
	for key, exp := range r.fences {
		if !now.Before(exp) {
			delete(r.fences, key)
		}
	}
	for key, c := range r.copies {
		if !c.held && !now.Before(c.expiry) {
			delete(r.copies, key)
		}
	}
	for id, p := range r.pend {
		if now.Sub(p.at) > dedupTTL {
			delete(r.pend, id)
		}
	}
	for seq, ro := range r.outs {
		if !now.Before(ro.expiry) {
			delete(r.outs, seq)
			continue
		}
		for _, a := range r.backupsForLocked(ring, ro.tag, ro.arity) {
			if ro.acked[a] {
				continue
			}
			if last, ok := ro.lastSend[a]; ok && now.Sub(last) < r.repair.every {
				continue
			}
			ro.lastSend[a] = now
			ackID := i.nextOp()
			r.pend[ackID] = pendRepl{seq: seq, to: a, at: now}
			jobs = append(jobs, job{to: a, msg: &wire.Message{
				Type: wire.TOut, ID: ackID, From: i.Addr(),
				TTL: ro.expiry.Sub(now), Tuple: ro.t,
				ReplOrigin: i.Addr(), ReplSeq: seq,
			}})
		}
	}
	for _, c := range r.copies {
		if !c.held && now.Before(c.expiry) {
			adopt = append(adopt, adoptee{c: c, origin: c.key.origin})
		}
	}
	r.mu.Unlock()

	for _, j := range jobs {
		if i.send(j.to, j.msg) == nil {
			i.ctr.replRepairs.Inc()
		}
	}

	// Adoption: probing each distinct origin once per sweep keeps the
	// cost linear in membership, not copies.
	dead := make(map[wire.Addr]bool)
	for _, ad := range adopt {
		d, probed := dead[ad.origin]
		if !probed {
			d = i.replPeerDead(ad.origin)
			dead[ad.origin] = d
		}
		if !d {
			continue
		}
		// The origin is dead, so it no longer counts toward R: the live
		// replica set is the ring's first R placements outright (the
		// probe above evicts the origin, so it drops out of Place as the
		// membership converges). Ranking self out of the chain would
		// otherwise leave a copy whose only live holder is this node.
		chain := ring.Place(ad.c.tag, ad.c.arity, r.n)
		for _, a := range chain {
			if a == i.Addr() || a == ad.origin {
				continue
			}
			r.mu.Lock()
			last, ok := ad.c.lastRepair[a]
			if ok && now.Sub(last) < r.repair.every {
				r.mu.Unlock()
				continue
			}
			ad.c.lastRepair[a] = now
			expiry := ad.c.expiry
			r.mu.Unlock()
			if i.send(a, &wire.Message{
				Type: wire.TOut, ID: i.nextOp(), From: i.Addr(),
				TTL: expiry.Sub(now), Tuple: ad.c.t,
				ReplOrigin: ad.c.key.origin, ReplSeq: ad.c.key.seq,
			}) == nil {
				i.ctr.replRepairs.Inc()
			}
		}
	}
}
