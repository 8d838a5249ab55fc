package core

import (
	"time"

	"tiamat/clock"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/tuple"
	"tiamat/wire"
)

// This file implements the responder side of the communications manager:
// serving propagated operations from peers, the tentative-hold protocol
// for distributed takes, remote out/eval admission, and relay forwarding.
//
// The paper's rule (§2.5) that "any Tiamat instance which, during the
// course of performing an operation, places demands on another, is
// responsible for negotiating any further leases" is realised here: every
// remote request is admitted through this instance's own lease manager
// before any local work happens.

// pendingHold is a tentatively removed tuple awaiting TAccept/TRelease.
// It is its own entry on the instance's deadline queue: the grace
// deadline reinstates it if the requester disappears.
type pendingHold struct {
	clock.Deadline
	i    *Instance
	id   uint64
	key  waitKey // the request this hold answers, for cache invalidation
	hold space.Hold
}

// Expire implements clock.Entry: the grace deadline passed with neither
// an accept nor a release, so the tuple goes back into the space.
func (ph *pendingHold) Expire() {
	if ph.i.settleHold(ph.id, false) {
		ph.i.met.Inc(trace.CtrHoldGraceExpired)
	}
}

// servedCacheMax bounds the dedup caches (served replies, accepted
// holds); the oldest entries are evicted first. The bound only has to
// outlast retransmission windows, which are seconds, so even a busy
// instance keeps every live entry.
const servedCacheMax = 4096

// dedupTTL is how long a cached reply to a remote request is kept for
// duplicate suppression. It only has to outlast a requester's
// retransmission window (seconds), so expiring entries bounds the cache
// on a long-lived responder even below the size cap. The replicator
// borrows it for how long a consumed identity stays fenced and an
// unacked replicate flight is remembered (replica.go).
const dedupTTL = 30 * time.Second

// servedReply is a cached reply plus the metadata bounding its life: the
// record time for dedupTTL expiry, and a sequence stamp so eviction
// refs can tell whether the entry under their key is still the one they
// enqueued (settleHold deletes entries out of band and the key may be
// re-recorded afterwards; without the stamp the stale ref would evict
// the fresh entry early).
type servedReply struct {
	msg *wire.Message
	at  time.Time
	seq uint64
}

// servedRef is one FIFO eviction-order slot.
type servedRef struct {
	key waitKey
	seq uint64
}

// recordServed caches the reply sent for a remote request so a
// retransmitted or duplicated frame is answered identically instead of
// re-executed (at-least-once delivery + idempotent handlers, §3.1.3).
// The cache is bounded two ways: entries older than dedupTTL are
// swept on every insert, and the size cap evicts the oldest beyond
// servedCacheMax — so a long-lived responder's memory is bounded by
// min(cap, request rate × TTL).
func (i *Instance) recordServed(key waitKey, m *wire.Message) {
	now := i.clk.Now()
	i.mu.Lock()
	defer i.mu.Unlock()
	i.servedSeq++
	i.served[key] = servedReply{msg: m, at: now, seq: i.servedSeq}
	i.servedOrder = append(i.servedOrder, servedRef{key: key, seq: i.servedSeq})
	for len(i.servedOrder) > 0 {
		ref := i.servedOrder[0]
		r, live := i.served[ref.key]
		if live && r.seq == ref.seq {
			if len(i.servedOrder) <= servedCacheMax && now.Sub(r.at) <= dedupTTL {
				break // oldest entry is live and fresh; the rest are fresher
			}
			delete(i.served, ref.key)
		}
		i.servedOrder = i.servedOrder[1:]
	}
}

// servedLookupLocked returns the cached reply for key, treating expired
// entries as misses. now is sampled outside i.mu by the caller.
func (i *Instance) servedLookupLocked(key waitKey, now time.Time) *wire.Message {
	r, ok := i.served[key]
	if !ok {
		return nil
	}
	if now.Sub(r.at) > dedupTTL {
		delete(i.served, key)
		return nil
	}
	return r.msg
}

// rememberAccepted records that this instance accepted a hold, so late
// duplicates of the winning result are never released (see releaseLate).
func (i *Instance) rememberAccepted(k acceptKey) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.accepted[k] {
		return
	}
	i.accepted[k] = true
	i.acceptedOrder = append(i.acceptedOrder, k)
	if len(i.acceptedOrder) > servedCacheMax {
		old := i.acceptedOrder[0]
		i.acceptedOrder = i.acceptedOrder[1:]
		delete(i.accepted, old)
	}
}

// remoteWait is a blocking operation we are serving for a peer: a
// registration parked in the local space with no goroutine behind it, its
// own sink and its serve lease's end hook. It ends by delivery — the Out
// that matches it calls Deliver, which sends the reply — or on an end
// edge: the requester's cancel or goodbye, the orphan sweep, shutdown,
// the lease running out. The space's claim decides between a delivery and
// handle.Cancel, and whoever wins it retires the wait. An edge can still
// land between that claim and the sink's first step: settled is what
// Deliver checks, and an edge that set it first turns the delivery into a
// release, since nobody is listening any more.
type remoteWait struct {
	i   *Instance
	key waitKey
	ttl time.Duration // effective serve budget, for the hold's grace
	lse *lease.Lease

	// Guarded by i.mu. handle is nil until Park has returned; an end edge
	// that arrives before that leaves the cancel to serveBlocking.
	handle   space.Parked
	settled  bool // an end edge or the sink has taken the wait
	notFound bool // the lease ended it: the requester is owed a not-found
}

// Deliver implements space.Sink. It runs on the goroutine of the Out that
// matched the wait (the application's, a serve worker's, a release's),
// with none of the space's locks held.
func (rw *remoteWait) Deliver(t tuple.Tuple, h space.Hold) {
	i := rw.i
	// The Out belongs to someone else: a panic in here is this wait's.
	defer i.recoverPanic("serve-wait")
	defer rw.retire()
	i.mu.Lock()
	ended := rw.settled
	rw.settled = true
	i.mu.Unlock()
	if ended {
		// A hold committed before the end edge landed is still ours to
		// settle: released, the tuple is neither lost nor answered to a
		// requester that has stopped listening.
		if h != nil {
			h.Release()
		}
		return
	}
	// For rd the delivered copy is the answer: rd semantics permit any
	// tuple that was in the space during the op.
	ro, rs := i.replIdentityFor(h)
	i.answerFound(rw.key, rw.ttl, t, h, ro, rs)
}

// LeaseEnded implements lease.EndHook.
func (rw *remoteWait) LeaseEnded() { rw.end(true) }

// end is every end edge. notFound says the requester is still listening
// and is owed a not-found (lease end); the others answer nobody.
func (rw *remoteWait) end(notFound bool) {
	i := rw.i
	i.mu.Lock()
	if rw.settled {
		i.mu.Unlock()
		return
	}
	rw.settled, rw.notFound = true, notFound
	h := rw.handle
	i.mu.Unlock()
	if h != nil && h.Cancel() {
		rw.retire()
	}
}

// retire gives back what the wait held — its slot in the wait table, the
// governor's count and the serve lease — and sends the not-found a lease
// end owes. It runs once: from the sink, or from the end edge (or
// serveBlocking, on its behalf) whose Cancel prevented the delivery.
func (rw *remoteWait) retire() {
	i := rw.i
	i.mu.Lock()
	if i.waits[rw.key] == rw {
		delete(i.waits, rw.key)
	}
	notFound := rw.notFound && !i.closed
	i.mu.Unlock()
	i.gov.dropWait(rw.key.from)
	rw.lse.Cancel()
	if notFound {
		// Deliberately not cached: if the requester's operation outlives
		// our granted lease, a later retransmission or rediscovery
		// multicast should register a fresh wait rather than replay it.
		_ = i.send(rw.key.from, &wire.Message{Type: wire.TResult, ID: rw.key.id, From: i.Addr()})
	}
}

// handleDiscover answers a visibility probe with this space's contact
// information (paper §3.1.3). The probe itself is evidence: a peer that
// reached us is visible, so observe it rather than depending on its
// one-shot boot hello having arrived — otherwise a lost hello leaves
// the knowledge asymmetric for both lifetimes (it keeps probing us, we
// never learn it exists) and join-event re-arming never fires here.
func (i *Instance) handleDiscover(m *wire.Message) {
	i.list.Observe(m.From)
	reply := &wire.Message{
		Type: wire.TAnnounce, ID: m.ID, From: i.Addr(), Persistent: i.cfg.Persistent,
	}
	i.stampAnnounce(reply)
	_ = i.send(m.From, reply)
}

// handleAnnounce routes an announce to the discovery round that asked.
// Either way the frame's self-reported health and capability set land in
// the responder list: a peer that flags itself degraded is deprioritized
// before this node ever times out on it, and a caps-less announce marks
// the peer known-baseline — every versioned feature stays off toward it
// until a later announce says otherwise (DESIGN.md §14). A hello also
// ends what this node keeps for the sender's earlier life (forgetLife).
func (i *Instance) handleAnnounce(m *wire.Message) {
	if m.ID == helloID {
		i.forgetLife(m.From)
	}
	i.mu.Lock()
	ch, ok := i.announces[m.ID]
	i.mu.Unlock()
	// Solicited or not, the announcer is alive; one critical section
	// records presence + caps + health so the join event a first
	// announce emits is never processed ahead of the capability state.
	i.replOnJoin(m.From, i.list.ObserveAnnounce(m.From, m.Caps, m.Degraded))
	if !ok {
		return
	}
	select {
	case ch <- SpaceInfo{Addr: m.From, Persistent: m.Persistent, Degraded: m.Degraded}:
	default:
	}
}

// answerFound sends the request named by key its found reply: t, and for
// a take the hold on it, registered here under the serve budget ttl, with
// the replica identity the requester is to invalidate on accept. A
// requester that cannot carry the identity is sent the reply without it,
// so an own replicated tuple's copies are withheld while the hold is out
// (replWithhold). The reply is cached first, so a duplicate of the request
// replays it.
func (i *Instance) answerFound(key waitKey, ttl time.Duration, t tuple.Tuple, h space.Hold, ro wire.Addr, rs uint64) {
	reply := &wire.Message{
		Type: wire.TResult, ID: key.id, From: i.Addr(),
		Found: true, Tuple: t, ReplOrigin: ro, ReplSeq: rs,
	}
	if h != nil {
		if rs != 0 && ro == i.Addr() && i.list.Caps(key.from)&wire.CapReplicaIdentity == 0 {
			h = i.replWithhold(h)
		}
		reply.HoldID = i.registerHold(h, ttl, key)
	}
	i.recordServed(key, reply)
	_ = i.send(key.from, reply)
}

// serveTerms derives the responder-side lease proposal for a remote op:
// the requester's TTL, clamped by this instance's own capacity during
// negotiation.
func serveTerms(ttl time.Duration) lease.Terms {
	if ttl <= 0 {
		ttl = time.Millisecond
	}
	return lease.Terms{Duration: ttl}
}

// effTTL is the effective serve budget for a remote op: the requester's
// TTL, cut to its propagated remaining budget when that is tighter
// (deadline propagation, DESIGN.md §9). A responder must never hold a
// waiter or a tentative removal past the point the requester can still
// use the answer. Budget==0 (pre-Budget peer, or budget==TTL) means the
// TTL is the whole story.
func (i *Instance) effTTL(m *wire.Message) time.Duration {
	if m.Budget > 0 && m.Budget < m.TTL {
		i.met.Inc(trace.CtrGovDeadlineCuts)
		return m.Budget
	}
	return m.TTL
}

// handleOp serves a propagated rd/rdp/in/inp against the local space.
func (i *Instance) handleOp(m *wire.Message) {
	// At-least-once delivery: answer retransmitted or duplicated requests
	// from the served cache (or stay silent while a blocking waiter for
	// the same request is still registered) instead of re-executing —
	// re-execution of a take would remove a second tuple.
	key := waitKey{from: m.From, id: m.ID}
	now := i.clk.Now()
	i.mu.Lock()
	cached := i.servedLookupLocked(key, now)
	rw, waiting := i.waits[key]
	i.mu.Unlock()
	if cached != nil {
		// A cached found reply replays as-is — re-executing would take a
		// second tuple. A cached not-found may be superseded when a
		// failover take arrives: the replica store can serve what the
		// space could not, so fall through and let the failover path (or a
		// fresh execution) answer.
		if cached.Found || !(m.Failover && m.Op.Removes() && i.repl != nil) {
			i.met.Inc(trace.CtrDedupDrops)
			_ = i.send(m.From, cached)
			return
		}
	}
	if waiting && !(m.Failover && m.Op.Removes() && i.repl != nil) {
		i.met.Inc(trace.CtrDedupDrops)
		return
	}
	// A failover retransmission of a take we already hold a waiter for
	// falls through instead: the replica store may satisfy it even though
	// the local space (which the waiter watches) cannot. If it does, the
	// standing waiter is stopped below so the take is served exactly once.

	// The serve budget is min(TTL, propagated requester budget); under
	// pressure the governor narrows the proposal further before the
	// lease manager ever sees it (escalation rung 1).
	ttl := i.effTTL(m)

	// Admit the work through our own lease manager; refusal means we
	// contribute nothing to this operation. GrantTerms is the
	// accept-any-offer fast path: the requester already negotiated on
	// its own node, so there is nothing to consider here.
	lse, err := i.mgr.GrantTerms(opKind(m.Op), i.gov.clampTerms(serveTerms(ttl)))
	if err != nil {
		_ = i.send(m.From, &wire.Message{Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false})
		return
	}

	// Immediate attempt.
	if m.Op.Removes() {
		if h, ok := i.local.Hold(m.Template); ok {
			ro, rs := i.replIdentityFor(h)
			i.answerFound(key, ttl, h.Tuple(), h, ro, rs)
			if waiting {
				rw.end(false)
			}
			lse.Cancel()
			return
		}
		if m.Failover && i.list.Caps(m.From)&wire.CapReplicaIdentity != 0 {
			// Failover take (replica.go): surrender a replica copy through
			// the ordinary hold protocol, but only if every holder ranked
			// above this node is provably dead. The reply carries the
			// copy's identity so the requester invalidates the remaining
			// holders on accept — which is why a requester not yet known
			// to carry it is not served from a copy.
			if h, k, ok := i.replFailoverHold(m.Template); ok {
				i.answerFound(key, ttl, h.Tuple(), h, k.origin, k.seq)
				if waiting {
					rw.end(false)
				}
				lse.Cancel()
				return
			}
		}
	} else {
		if t, ok := i.local.Rdp(m.Template); ok {
			i.answerFound(key, ttl, t, nil, "", 0)
			lse.Cancel()
			return
		}
		// Any live replica may answer a read (replica.go): staleness is
		// bounded by the copy's lease, exactly the bound the paper already
		// accepts for visibility.
		if t, ok := i.replRdp(m.Template); ok {
			i.answerFound(key, ttl, t, nil, "", 0)
			lse.Cancel()
			return
		}
	}

	if waiting {
		// Nothing servable beyond what the standing waiter already
		// watches; it stays registered and this duplicate ends here.
		i.met.Inc(trace.CtrDedupDrops)
		lse.Cancel()
		return
	}

	if !m.Op.Blocking() {
		notFound := &wire.Message{Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false}
		i.recordServed(key, notFound)
		_ = i.send(m.From, notFound)
		lse.Cancel()
		return
	}

	// Blocking op: hold a waiter on behalf of the peer until a match,
	// the granted lease expires, or the peer cancels.
	i.serveBlocking(m, lse, ttl)
}

// serveBlocking parks a peer's blocking operation in the local space. ttl
// is the effective serve budget computed by handleOp.
func (i *Instance) serveBlocking(m *wire.Message, lse *lease.Lease, ttl time.Duration) {
	key := waitKey{from: m.From, id: m.ID}
	// Claim a slot in the bounded remote wait table first: both the
	// per-peer fairness quota and the global cap apply. Refusal is an
	// explicit busy reply — the requester fails over instead of assuming
	// a waiter is registered here.
	if !i.gov.tryAddWait(m.From) {
		lse.Cancel()
		_ = i.send(m.From, &wire.Message{
			Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false, Busy: true,
		})
		return
	}
	rw := &remoteWait{i: i, key: key, ttl: ttl, lse: lse}
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		i.gov.dropWait(m.From)
		lse.Cancel()
		return
	}
	if _, ok := i.waits[key]; ok {
		// Duplicate of an operation we are already serving (a chaos
		// duplicate, a retransmission, or a rediscovery re-multicast):
		// the existing waiter stands; a second would double-serve.
		i.mu.Unlock()
		i.gov.dropWait(m.From)
		i.met.Inc(trace.CtrDedupDrops)
		lse.Cancel()
		return
	}
	i.waits[key] = rw
	i.mu.Unlock()
	lse.OnEnd(rw)

	// A TCancel may have overtaken this op while it sat in the governor's
	// queue; honour it now that the wait is visible to handleCancel.
	if i.gov.isCancelled(key) {
		rw.end(false)
	}

	// One registration, made once. A destructive op parks a taker: the
	// space hands each matching Out to exactly one of them, oldest first,
	// as a hold with the entry's id and expiry intact — no second scan, no
	// race to lose, no re-registration (DESIGN.md §6). A read parks for a
	// copy: every reader is owed one. Either may be called before Park
	// returns, and the lease may end first. The wait can outlive the frame
	// that carried the op: the template is deep-copied so a no-copy-decoded
	// frame buffer (which the template would otherwise alias) is not pinned
	// for the whole wait.
	h := i.local.Park(m.Template.Copy(), m.Op.Removes(), rw)
	i.mu.Lock()
	rw.handle = h
	ended := rw.settled
	i.mu.Unlock()
	// Settled already: delivered, or ended before there was a handle to
	// cancel — and then the cancel is ours to make.
	if ended && h.Cancel() {
		rw.retire()
	}
}

// registerHold records a tentative removal and schedules its grace
// deadline. key names the request the hold answers, so reinstatement can
// invalidate the cached reply.
func (i *Instance) registerHold(h space.Hold, ttl time.Duration, key waitKey) uint64 {
	grace := ttl + i.tm.holdGrace
	if grace <= 0 {
		grace = i.tm.holdGrace
	}
	ph := &pendingHold{i: i, key: key, hold: h}
	at := i.clk.Now().Add(grace)
	// Scheduled under i.mu: whoever finds the hold in the table and
	// settles it also finds its deadline there to cancel.
	i.mu.Lock()
	i.nextHold++
	ph.id = i.nextHold
	i.holds[ph.id] = ph
	i.deadlines.Schedule(ph, at)
	i.mu.Unlock()
	return ph.id
}

// settleHold finalises (accept) or reinstates (release) a pending hold,
// reporting whether the hold was still pending.
func (i *Instance) settleHold(id uint64, accept bool) bool {
	i.mu.Lock()
	ph, ok := i.holds[id]
	if ok {
		delete(i.holds, id)
		i.retiredLocked()
		if !accept {
			// The tuple goes back into the space, so the cached found
			// reply naming this hold must never be replayed: a
			// retransmitted request re-executes and takes it afresh.
			if r, ok := i.served[ph.key]; ok && r.msg.HoldID == id {
				delete(i.served, ph.key)
			}
		}
	}
	i.mu.Unlock()
	if !ok {
		return false
	}
	i.deadlines.Cancel(ph)
	if accept {
		ph.hold.Accept()
	} else {
		ph.hold.Release()
	}
	return true
}

// handleAccept finalises a tentative hold and acknowledges, letting the
// requester stop retransmitting the accept. A duplicate accept finds the
// hold already settled and is simply acknowledged again — idempotent.
func (i *Instance) handleAccept(m *wire.Message) {
	i.settleHold(m.HoldID, true)
	_ = i.send(m.From, &wire.Message{Type: wire.TAck, ID: m.ID, From: i.Addr(), OK: true})
}

// handleCancel stops a blocking waiter we are serving. The cancel is
// also recorded against any copy of the op still sitting in the
// governor's queue: with a parallel serve pool a cancel can overtake
// its op, and the worker must drop it rather than register a waiter
// this cancel can no longer reach.
func (i *Instance) handleCancel(m *wire.Message) {
	if m.ReplSeq != 0 {
		// Replica invalidation rides TCancel (replica.go): the identified
		// copy is consumed; drop it and fence its identity.
		i.replInvalidate(m)
		return
	}
	key := waitKey{from: m.From, id: m.ID}
	i.gov.markCancelled(key)
	i.mu.Lock()
	rw, ok := i.waits[key]
	i.mu.Unlock()
	if ok {
		rw.end(false)
	}
}

// handleRemoteOut admits a direct remote out (paper §2.4): the tuple is
// stored under a lease this instance negotiates for itself.
func (i *Instance) handleRemoteOut(m *wire.Message) {
	if m.ReplSeq != 0 {
		// Replicate/repair write-through (replica.go): soft state in the
		// replica store, not a remote out into the space. Idempotent, so
		// no served-cache round-trip is needed.
		i.handleReplicate(m)
		return
	}
	i.serveOnce(m, i.remoteOut)
}

// handleRemoteEval admits a direct remote eval: the function must be
// registered here and a thread and lease must be available.
func (i *Instance) handleRemoteEval(m *wire.Message) { i.serveOnce(m, i.remoteEval) }

// serveOnce answers a direct remote out or eval with an ack: admit's
// refusal, or OK. The ack is cached, and a duplicated frame replays it —
// re-executing would store a second copy or run the eval twice.
func (i *Instance) serveOnce(m *wire.Message, admit func(*wire.Message) error) {
	key := waitKey{from: m.From, id: m.ID}
	if i.resendServed(key) {
		i.met.Inc(trace.CtrDedupDrops)
		return
	}
	ack := &wire.Message{Type: wire.TAck, ID: m.ID, From: i.Addr(), OK: true}
	if err := admit(m); err != nil {
		ack.OK, ack.Err = false, err.Error()
	}
	i.recordServed(key, ack)
	_ = i.send(m.From, ack)
}

func (i *Instance) remoteOut(m *wire.Message) error {
	terms := serveTerms(m.TTL)
	terms.MaxBytes = m.Tuple.Size()
	// Under pressure only the duration is negotiable downward: clamping
	// the byte budget below the tuple's size would turn every admitted
	// out into a refusal, which is shedding with extra steps.
	if clamped := i.gov.clampTerms(terms); clamped.Duration < terms.Duration {
		terms.Duration = clamped.Duration
	}
	lse, err := i.mgr.GrantTerms(lease.OpOut, terms)
	if err != nil {
		return err
	}
	if err := lse.ConsumeBytes(m.Tuple.Size()); err != nil {
		lse.Cancel()
		return err
	}
	// Retention boundary: the tuple outlives the frame that carried it,
	// so detach it from a possibly-aliased decode buffer.
	sid, err := i.outLeased(m.Tuple.Copy(), lse)
	if err != nil {
		lse.Cancel()
		return err
	}
	if sid != 0 {
		lse.ShrinkBytes()
	} else {
		lse.Cancel() // consumed by a waiting taker
	}
	return nil
}

func (i *Instance) remoteEval(m *wire.Message) error {
	f, ok := i.evalFunc(m.Func)
	if !ok {
		return ErrUnknownEval
	}
	terms := serveTerms(m.TTL)
	terms.MaxBytes = i.mgr.Capacity().MaxBytes
	lse, err := i.mgr.GrantTerms(lease.OpEval, i.gov.clampTerms(terms))
	if err != nil {
		return err
	}
	// Retention boundary: the eval runs long after the frame is gone.
	return i.startEval(f, m.Tuple.Copy(), lse)
}

// resendServed replays the cached reply for a duplicated request, if any.
func (i *Instance) resendServed(key waitKey) bool {
	now := i.clk.Now()
	i.mu.Lock()
	cached := i.servedLookupLocked(key, now)
	i.mu.Unlock()
	if cached == nil {
		return false
	}
	_ = i.send(key.from, cached)
	return true
}

// handleRelay forwards an encapsulated frame to its target (backbone
// routing, §6 extension). Forwarding is best-effort.
func (i *Instance) handleRelay(m *wire.Message) {
	// The payload buffer belongs to this message alone, so the inner
	// frame may alias it instead of re-copying every field.
	inner, err := wire.DecodeNoCopy(m.Payload)
	if err != nil {
		return
	}
	if m.Target == i.Addr() {
		// We are the destination: loop the frame back through our own
		// dispatcher by handling it inline.
		i.dispatch(inner)
		return
	}
	_ = i.send(m.Target, inner)
}

// relayOut best-effort delivers an out to res.From via a backbone relay.
func (i *Instance) relayOut(res Result) error {
	inner := &wire.Message{Type: wire.TOut, ID: i.nextOp(), From: i.Addr(),
		TTL: defaultTerms.Duration, Tuple: res.Tuple}
	payload := wire.Encode(inner)
	i.mu.Lock()
	relays := append([]wire.Addr(nil), i.relays...)
	i.mu.Unlock()
	var lastErr error = ErrAbandoned
	for _, relay := range relays {
		err := i.send(relay, &wire.Message{
			Type: wire.TRelay, ID: i.nextOp(), From: i.Addr(),
			Target: res.From, Payload: payload,
		})
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

// handleGoodbye processes a peer's graceful departure: it is dropped
// from the responder list at once (no failure accounting — it told us it
// is leaving), blocking waits served on its behalf are stopped, and
// holds it owns are reinstated immediately instead of riding out their
// grace deadlines — the accept is never coming.
func (i *Instance) handleGoodbye(m *wire.Message) {
	i.list.Depart(m.From)
	i.releasePeer(m.From)
}

// releasePeer ends every blocking wait served for peer and reinstates
// every hold it owns: what a goodbye asks for, and what the orphan sweep
// does for a peer that never got to send one. It reports how many of each
// it released.
func (i *Instance) releasePeer(peer wire.Addr) (waits, holds int) {
	waits = i.endWaits(peer)
	i.mu.Lock()
	var hs []uint64
	for id, ph := range i.holds {
		if ph.key.from == peer {
			hs = append(hs, id)
		}
	}
	i.mu.Unlock()
	for _, id := range hs {
		i.settleHold(id, false)
	}
	return waits, len(hs)
}

// endWaits ends every blocking wait served for peer, answering nobody, and
// reports how many it ended.
func (i *Instance) endWaits(peer wire.Addr) int {
	i.mu.Lock()
	var ws []*remoteWait
	for key, w := range i.waits {
		if key.from == peer {
			ws = append(ws, w)
		}
	}
	i.mu.Unlock()
	for _, w := range ws {
		w.end(false)
	}
	return len(ws)
}

// helloID is the ID of the announce New sends, and of no other frame: a
// hello says its sender has just started. Every life numbers its ops from 1
// again, so what a responder keeps under a (sender, op ID) key for an
// earlier life at that address would be taken for the new life's op of the
// same number: a take's cached reply would hand over a tuple already taken,
// an out's cached ack would acknowledge a tuple never stored, and a parked
// wait would swallow the new op as its duplicate. Op IDs stay plain
// counters: a base drawn per life would lengthen every ID on the wire.
const helloID = ^uint64(0)

// forgetLife drops, on peer's hello, what this node keeps for peer's
// earlier life: the cached replies to its ops and the waits parked for
// them. Its holds are left to their grace deadlines — a hello overtaken in
// transit by the new life's first ops lands after holds that life may have
// accepted, and reinstating one would hand its tuple out twice.
func (i *Instance) forgetLife(peer wire.Addr) {
	i.mu.Lock()
	for key := range i.served {
		if key.from == peer {
			delete(i.served, key)
		}
	}
	i.mu.Unlock()
	i.endWaits(peer)
}

// refuseDraining gives a serve frame the definitive answer a draining
// node owes it — a not-found for an op, a refusal ack for an out or eval —
// so the peer fails over instead of retrying into a closing node.
func (i *Instance) refuseDraining(m *wire.Message) {
	switch m.Type {
	case wire.TOp:
		_ = i.send(m.From, &wire.Message{Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false})
	case wire.TOut, wire.TEval:
		_ = i.send(m.From, &wire.Message{Type: wire.TAck, ID: m.ID, From: i.Addr(), OK: false, Err: "draining"})
	}
}

// dispatch routes one message exactly as the event loop does; used by
// relay delivery to self. It runs on the receive loop, so nothing it
// calls may wait for a frame the loop has yet to deliver.
func (i *Instance) dispatch(m *wire.Message) {
	if i.draining.Load() {
		// New work is refused; in-flight settlement traffic (results,
		// accepts, releases, cancels) still flows so the drain can finish.
		switch m.Type {
		case wire.TOp, wire.TOut, wire.TEval:
			i.refuseDraining(m)
			return
		case wire.TDiscover:
			return // do not advertise a space that is leaving
		}
	}
	// Any frame from a peer whose build we don't know yet triggers a
	// capability probe (announces answer the question themselves).
	if m.Type != wire.TAnnounce && m.From != "" {
		i.maybeProbeCaps(m.From)
	}
	switch m.Type {
	case wire.TDiscover:
		i.handleDiscover(m)
	case wire.TAnnounce:
		i.handleAnnounce(m)
	case wire.TOp, wire.TOut, wire.TEval:
		// Serve work goes through the governor: per-peer quotas,
		// watermark shedding, then an op served right here on an idle
		// node, or the bounded queue and the worker pool. Settlement
		// traffic below is always handled here, so a loaded queue never
		// delays completions.
		i.gov.submit(m)
	case wire.TResult:
		i.handleResult(m)
	case wire.TAccept:
		i.handleAccept(m)
	case wire.TRelease:
		i.settleHold(m.HoldID, false)
	case wire.TCancel:
		i.handleCancel(m)
	case wire.TAck:
		i.handleResult(m)
	case wire.TRelay:
		i.handleRelay(m)
	case wire.TGoodbye:
		i.handleGoodbye(m)
	}
}
