package core

import (
	"time"

	"tiamat/clock"
	"tiamat/lease"
	"tiamat/space"
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
// deadline reinstates it if the requester disappears. It carries the TAck
// its accept is answered with; the request's record does not keep it (§7).
type pendingHold struct {
	clock.Deadline
	i    *Instance
	id   uint64
	key  waitKey // the request this hold answers, whose recorded reply it voids
	hold space.Hold
	ack  wire.Message
}

// Expire implements clock.Entry: the grace deadline passed with neither
// an accept nor a release, so the tuple goes back into the space.
func (ph *pendingHold) Expire() {
	if ph.i.settleHold(ph.id, false) != nil {
		ph.i.ctr.holdGraceExpired.Inc()
	}
}

// reqState is where a live remote request stands at this responder.
type reqState uint8

const (
	reqAdmitted reqState = iota // queued or running; finish files it
	reqParked                   // a blocking op waiting in the local space
	reqFinished                 // answered or cancelled (served has it); its wait has yet to retire
)

// request is this responder's record of a remote request still live,
// kept by value in Instance.requests under (requester, op ID) (DESIGN.md
// §6, "Idempotent responders"). While admitted, reply and wait hold what
// the run has produced so far — or, for a failover run, what it may
// supersede — and finishRun files the request by them. An answered or
// cancelled request is filed in Instance.served as a finished record
// (served.go), and its live record stays only until its wait retires.
type request struct {
	state    reqState
	dup      bool          // admitted: a copy arrived meanwhile, owed the reply
	accepted bool          // admitted: the run's hold was accepted; finish files a tombstone
	reply    *wire.Message // admitted: the reply sent so far
	// wait is the blocking wait parked for the request, held from the park
	// until the wait retires, whatever the state meanwhile.
	wait *remoteWait
}

// admit decides once what a remote work frame gets from its request's
// record: a replay of the recorded reply, silence (nil, false; a copy of
// an admitted request is owed the reply at finish, and one of an accepted
// take or a cancelled request has its answer already), or a run, for
// which the request is recorded admitted. A failover take that meets a
// recorded not-found or a parked wait runs too: the replica store may
// serve what the space, which that wait watches, could not (handleOp).
func (i *Instance) admit(m *wire.Message) (replay *wire.Message, execute bool) {
	key := waitKey{from: m.From, id: m.ID}
	failover := m.Type == wire.TOp && m.Failover && m.Op.Removes() && i.repl != nil
	i.mu.Lock()
	defer i.mu.Unlock()
	e, ok := i.requests[key]
	switch {
	case ok && e.state == reqAdmitted:
		e.dup = true
		i.requests[key] = e
		return nil, false
	case ok && e.state == reqParked && !failover:
		return nil, false
	case ok && e.state == reqParked:
		i.requests[key] = request{wait: e.wait}
		return nil, true
	}
	f := i.served.get(key)
	if f != nil && i.served.stale(f, i.clk.Now()) {
		i.served.drop(key)
		f = nil
	}
	switch {
	case f == nil:
		i.requests[key] = request{}
		return nil, true
	case f.kind != ansNotFound || !failover:
		return f.reply(i.Addr()), false
	}
	i.requests[key] = request{wait: e.wait, reply: f.reply(i.Addr())}
	i.served.drop(key)
	return nil, true
}

// finishRun files an admitted request once its run is over, by what the
// run left: a reply or an accepted hold makes it finished, a parked wait
// parked, nothing drops the record. It returns the reply when a copy that
// arrived during the run is owed it. A request cancelled meanwhile is
// finished already. now is the reading of the frame the run served.
func (i *Instance) finishRun(key waitKey, now time.Time) *wire.Message {
	i.mu.Lock()
	defer i.mu.Unlock()
	e, ok := i.requests[key]
	switch {
	case !ok || e.state != reqAdmitted:
		return nil
	case e.reply != nil || e.accepted:
		i.finishLocked(key, finishedAs(key, e.reply, i.Addr()), now)
		if e.dup {
			return e.reply
		}
	case e.wait != nil:
		i.requests[key] = request{state: reqParked, wait: e.wait}
	default:
		delete(i.requests, key)
	}
	return nil
}

// recordServed records the reply sent for a remote request, so a
// retransmitted or duplicated frame is answered identically instead of
// re-executed. A running request keeps it for finishRun to file; any
// other is finished now.
func (i *Instance) recordServed(key waitKey, m *wire.Message, now time.Time) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if e, ok := i.requests[key]; ok && e.state == reqAdmitted {
		e.reply = m
		i.requests[key] = e
		return
	}
	i.finishLocked(key, finishedAs(key, m, i.Addr()), now)
}

// finishLocked files key's request as finished, as f at now. Its live
// record stays only for a wait that has yet to retire: whoever finished
// it has ended that wait, or is about to.
func (i *Instance) finishLocked(key waitKey, f finished, now time.Time) {
	if e, ok := i.requests[key]; ok && e.wait != nil {
		i.requests[key] = request{state: reqFinished, wait: e.wait}
	} else {
		delete(i.requests, key)
	}
	i.served.add(f, now)
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
	lse lease.Lease   // granted into place: never copy or reuse a wait (DESIGN.md §7)

	// Guarded by i.mu. handle is nil until Park has returned; an end edge
	// that arrives before that leaves the cancel to serveBlocking.
	handle   space.Parked
	settled  bool // an end edge or the sink has taken the wait
	notFound bool // the lease ended it: the requester is owed a not-found
}

// Deliver implements space.Sink. It runs on the goroutine of the Out that
// matched the wait (the application's, a served out's, a release's),
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
	i.answerFound(rw.key, rw.ttl, t, h, ro, rs, i.clk.Now())
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

// retire gives back what the wait held — its request's record, the
// governor's count and the serve lease — and sends the not-found a lease
// end owes. It runs once: from the sink, or from the end edge (or
// serveBlocking, on its behalf) whose Cancel prevented the delivery. A
// parked or finished record goes with the wait; an admitted one stays.
func (rw *remoteWait) retire() {
	i := rw.i
	i.mu.Lock()
	if e, ok := i.requests[rw.key]; ok && e.wait == rw {
		if e.state != reqAdmitted {
			delete(i.requests, rw.key)
		} else {
			e.wait = nil
			i.requests[rw.key] = e
		}
	}
	notFound := rw.notFound && !i.closed.Load()
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
// Either way the announcer lands in the responder list with its
// self-reported health — a peer that flags itself degraded is
// deprioritized before this node ever times out on it — unless its caps
// are below the wire floor, which lists nobody (DESIGN.md §14). A hello
// also ends what this node keeps for the sender's earlier life
// (forgetLife).
func (i *Instance) handleAnnounce(m *wire.Message) {
	if m.ID == helloID {
		i.forgetLife(m.From)
	}
	i.mu.Lock()
	ch, ok := i.announces[m.ID]
	i.mu.Unlock()
	// Solicited or not, the announcer is alive; one critical section
	// records presence and health so the join event a first announce
	// emits is never processed ahead of the health state.
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
// the replica identity the requester is to invalidate on accept. The
// reply is recorded first, so a duplicate of the request replays it. now
// is the reading of the event that found t: the served frame, or the Out
// that matched a parked wait.
func (i *Instance) answerFound(key waitKey, ttl time.Duration, t tuple.Tuple, h space.Hold, ro wire.Addr, rs uint64, now time.Time) {
	reply := &wire.Message{
		Type: wire.TResult, ID: key.id, From: i.Addr(),
		Found: true, Tuple: t, ReplOrigin: ro, ReplSeq: rs,
	}
	if h != nil {
		reply.HoldID = i.registerHold(h, ttl, key, now)
	}
	i.recordServed(key, reply, now)
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
// use the answer. Budget==0 (budget==TTL) means the TTL is the whole
// story.
func (i *Instance) effTTL(m *wire.Message) time.Duration {
	if m.Budget > 0 && m.Budget < m.TTL {
		i.ctr.govDeadlineCuts.Inc()
		return m.Budget
	}
	return m.TTL
}

// handleOp serves a propagated rd/rdp/in/inp against the local space.
// Duplicates were decided at admission (admit); what runs here is a new
// request, or a failover take beside a standing wait for the same
// request. If the replica store serves the latter, the wait is stopped so
// the take is served exactly once. now is the frame's one reading.
func (i *Instance) handleOp(m *wire.Message, now time.Time) {
	key := waitKey{from: m.From, id: m.ID}
	var rw *remoteWait
	if m.Op.Blocking() || m.Failover {
		// Only a blocking op is cancelled (cancelRemotes), and only a
		// failover run meets a standing wait.
		i.mu.Lock()
		e, ok := i.requests[key]
		cancelled := (!ok || e.state == reqFinished) && i.served.cancelled(key)
		i.mu.Unlock()
		if cancelled {
			return // a TCancel overtook the op, in transit or in the serve queue
		}
		rw = e.wait
	}

	// The serve budget is min(TTL, propagated requester budget).
	ttl := i.effTTL(m)

	// Admit the work through our own lease manager; refusal means we
	// contribute nothing to this operation. Admission mints no lease: an
	// answer sent before this returns leaves nothing to bound (paper
	// §3.1.1). Only a parked wait outlives the frame; serveBlocking leases
	// it, clamped (the clamp narrows a duration, it never refuses).
	offer, err := i.mgr.Admit(opKind(m.Op), serveTerms(ttl))
	if err != nil {
		_ = i.send(m.From, &wire.Message{Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false})
		return
	}

	// Immediate attempt.
	if m.Op.Removes() {
		if h, ok := i.local.Hold(m.Template); ok {
			ro, rs := i.replIdentityFor(h)
			i.answerFound(key, ttl, h.Tuple(), h, ro, rs, now)
			if rw != nil {
				rw.end(false)
			}
			return
		}
		if m.Failover {
			// Failover take (replica.go): surrender a replica copy through
			// the ordinary hold protocol, but only if every holder ranked
			// above this node is provably dead. The reply carries the
			// copy's identity so the requester invalidates the remaining
			// holders on accept: a sender that encoded the marker decodes
			// the identity.
			if h, k, ok := i.replFailoverHold(m.Template); ok {
				i.answerFound(key, ttl, h.Tuple(), h, k.origin, k.seq, now)
				if rw != nil {
					rw.end(false)
				}
				return
			}
		}
	} else {
		if t, ok := i.local.Rdp(m.Template); ok {
			i.answerFound(key, ttl, t, nil, "", 0, now)
			return
		}
		// Any live replica may answer a read (replica.go): staleness is
		// bounded by the copy's lease, exactly the bound the paper already
		// accepts for visibility.
		if t, ok := i.replRdp(m.Template); ok {
			i.answerFound(key, ttl, t, nil, "", 0, now)
			return
		}
	}

	if rw != nil {
		// Nothing servable beyond what the standing waiter already
		// watches; it stays registered and this duplicate ends here.
		i.ctr.dedupDrops.Inc()
		return
	}

	if !m.Op.Blocking() {
		notFound := &wire.Message{Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false}
		i.recordServed(key, notFound, now)
		_ = i.send(m.From, notFound)
		return
	}

	// Blocking op: hold a waiter on behalf of the peer until a match,
	// its lease expires, or the peer cancels.
	i.serveBlocking(m, ttl, offer, now)
}

// serveBlocking parks a peer's blocking operation in the local space. ttl
// is the effective serve budget computed by handleOp, and offer what its
// admission offered for it, and now the frame's reading.
func (i *Instance) serveBlocking(m *wire.Message, ttl time.Duration, offer lease.Terms, now time.Time) {
	key := waitKey{from: m.From, id: m.ID}
	// The wait carries its lease. Under pressure the governor narrows the
	// offer before the lease is minted (escalation rung 1).
	rw := &remoteWait{i: i, key: key, ttl: ttl}
	if i.mgr.GrantOffer(&rw.lse, opKind(m.Op), i.gov.clampTerms(offer), now) != nil {
		_ = i.send(m.From, &wire.Message{Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false})
		return
	}
	// Claim a slot in the bounded remote wait table: both the per-peer
	// fairness quota and the global cap apply. Refusal is an explicit
	// busy reply — the requester fails over instead of assuming a waiter
	// is registered here.
	if !i.gov.tryAddWait(m.From) {
		rw.lse.Cancel()
		_ = i.send(m.From, &wire.Message{
			Type: wire.TResult, ID: m.ID, From: i.Addr(), Found: false, Busy: true,
		})
		return
	}
	i.mu.Lock()
	e, ok := i.requests[key]
	if i.closed.Load() || !ok || e.state != reqAdmitted {
		// Closed, or a TCancel landed while the op ran: no wait to park.
		i.mu.Unlock()
		i.gov.dropWait(m.From)
		rw.lse.Cancel()
		return
	}
	e.wait = rw
	i.requests[key] = e
	i.mu.Unlock()
	rw.lse.OnEnd(rw)

	// One registration, made once. A destructive op parks a Claim: the
	// space hands each matching Out no local in took to exactly one of
	// them, oldest first, as a hold with the entry's id and expiry
	// intact — no second scan, no race to lose, no re-registration
	// (DESIGN.md §6). A read parks for a copy: every reader is owed one.
	// Either may be called before Park returns, and the lease may end
	// first. The template is parked as received, uncopied: both transports
	// decode each frame into an object of its own, which the template
	// aliases, so the wait pins that one frame until its lease ends.
	kind := space.Read
	if m.Op.Removes() {
		kind = space.Claim
	}
	h := i.local.Park(m.Template, kind, rw)
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
// deadline, grace after now. key names the request the hold answers, so
// reinstatement can invalidate the cached reply.
func (i *Instance) registerHold(h space.Hold, ttl time.Duration, key waitKey, now time.Time) uint64 {
	grace := ttl + i.tm.holdGrace
	if grace <= 0 {
		grace = i.tm.holdGrace
	}
	ph := &pendingHold{i: i, key: key, hold: h}
	at := now.Add(grace)
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
// returning it if it was still pending and nil otherwise.
func (i *Instance) settleHold(id uint64, accept bool) *pendingHold {
	i.mu.Lock()
	ph, ok := i.holds[id]
	if ok {
		delete(i.holds, id)
		i.retiredLocked()
		// The found reply naming this hold is never sent again. Accepted,
		// the requester has it: the record stays as an answered tombstone,
		// which silences a later copy, and neither the reply nor its tuple
		// is kept. Released, the tuple is back in the space: a later copy
		// re-executes and takes it afresh. A record still running is filed
		// by finishRun, as a tombstone or not at all.
		if e, ok := i.requests[ph.key]; ok && e.reply != nil && e.reply.HoldID == id {
			e.reply, e.accepted = nil, accept
			i.requests[ph.key] = e
		} else if f := i.served.get(ph.key); f != nil && f.kind == ansMsg && f.msg.HoldID == id {
			if accept {
				f.kind, f.msg = ansAccepted, nil
			} else {
				i.served.drop(ph.key)
			}
		}
	}
	i.mu.Unlock()
	if !ok {
		return nil
	}
	i.deadlines.Cancel(ph)
	if accept {
		ph.hold.Accept()
	} else {
		ph.hold.Release()
	}
	return ph
}

// handleAccept finalises a tentative hold and acknowledges, letting the
// requester stop retransmitting the accept, with the ack the hold carries.
// A duplicate accept finds the hold already settled and is simply
// acknowledged again, with a fresh ack — idempotent.
func (i *Instance) handleAccept(m *wire.Message) {
	var ack *wire.Message
	if ph := i.settleHold(m.HoldID, true); ph != nil {
		ack = &ph.ack
	} else {
		ack = new(wire.Message)
	}
	*ack = wire.Message{Type: wire.TAck, ID: m.ID, From: i.Addr(), OK: true}
	_ = i.send(m.From, ack)
}

// handleCancel withdraws a request, whatever its record held (a parked
// wait is ended), and files it finished as cancelled, evictable like an
// answered one: a cancel can beat its op, and a copy that comes after it
// must be dropped, not park a wait nobody will cancel (DESIGN.md §6).
func (i *Instance) handleCancel(m *wire.Message) {
	if m.ReplSeq != 0 {
		// Replica invalidation rides TCancel (replica.go): the identified
		// copy is consumed; drop it and fence its identity.
		i.replInvalidate(m)
		return
	}
	key := waitKey{from: m.From, id: m.ID}
	i.mu.Lock()
	rw := i.requests[key].wait
	i.finishLocked(key, finished{key: key, kind: ansCancelled}, i.clk.Now())
	i.mu.Unlock()
	if rw != nil {
		rw.end(false)
	}
}

// handleRemoteOut admits a direct remote out (paper §2.4): the tuple is
// stored under a lease this instance negotiates for itself.
func (i *Instance) handleRemoteOut(m *wire.Message, now time.Time) {
	if m.ReplSeq != 0 {
		// Replicate/repair write-through (replica.go): soft state in the
		// replica store, not a remote out into the space. Idempotent, so
		// no served-cache round-trip is needed.
		i.handleReplicate(m)
		return
	}
	i.serveOnce(m, now, i.remoteOut)
}

// handleRemoteEval admits a direct remote eval: the function must be
// registered here and a thread and lease must be available.
func (i *Instance) handleRemoteEval(m *wire.Message, now time.Time) {
	i.serveOnce(m, now, i.remoteEval)
}

// serveOnce answers a direct remote out or eval with an ack: run's
// refusal, or OK. The ack is recorded, and a duplicated frame replays it
// (admit) — re-executing would store a second copy or run the eval twice.
// now is the frame's reading, which run is handed too.
func (i *Instance) serveOnce(m *wire.Message, now time.Time, run func(*wire.Message, time.Time) error) {
	ack := &wire.Message{Type: wire.TAck, ID: m.ID, From: i.Addr(), OK: true}
	if err := run(m, now); err != nil {
		ack.OK, ack.Err = false, err.Error()
	}
	i.recordServed(waitKey{from: m.From, id: m.ID}, ack, now)
	_ = i.send(m.From, ack)
}

func (i *Instance) remoteOut(m *wire.Message, now time.Time) error {
	terms := serveTerms(m.TTL)
	terms.MaxBytes = m.Tuple.Size()
	terms.MaxRemotes = i.cfg.Replicas - 1 // what place's write-through spends
	// Under pressure only the duration is negotiable downward: clamping
	// the byte budget below the tuple's size would turn every admitted
	// out into a refusal, which is shedding with extra steps.
	if clamped := i.gov.clampTerms(terms); clamped.Duration < terms.Duration {
		terms.Duration = clamped.Duration
	}
	offer, err := i.mgr.Admit(lease.OpOut, terms)
	if err != nil {
		return err
	}
	// Retention boundary: the tuple outlives the frame that carried it,
	// so detach it from a possibly-aliased decode buffer. Served, the
	// placement sends its write-through and does not wait for it.
	return i.out(m.Tuple.Copy(), offer, false, now)
}

func (i *Instance) remoteEval(m *wire.Message, _ time.Time) error {
	f, ok := i.evalFunc(m.Func)
	if !ok {
		return ErrUnknownEval
	}
	terms := serveTerms(m.TTL)
	terms.MaxBytes = i.mgr.Capacity().MaxBytes
	terms.MaxRemotes = i.cfg.Replicas - 1 // what the result's placement spends
	lse, err := i.mgr.Grant(lease.OpEval, lease.Flexible(i.gov.clampTerms(terms)))
	if err != nil {
		return err
	}
	// Retention boundary: the eval runs long after the frame is gone.
	return i.startEval(f, m.Tuple.Copy(), lse)
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
	waits = i.endWaits(peer, false)
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

// endWaits ends every blocking wait served for peer — for every peer when
// peer is empty — and reports how many it ended. notFound sends each
// requester a not-found; otherwise nobody is answered.
func (i *Instance) endWaits(peer wire.Addr, notFound bool) int {
	i.mu.Lock()
	var ws []*remoteWait
	for key, e := range i.requests {
		if e.wait != nil && (peer == "" || key.from == peer) {
			ws = append(ws, e.wait)
		}
	}
	i.mu.Unlock()
	for _, w := range ws {
		w.end(notFound)
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
// earlier life: its answered and cancelled requests and the waits parked
// for it. Its holds are left to their grace deadlines — a hello overtaken
// in transit by the new life's first ops lands after holds that life may
// have accepted, and reinstating one would hand its tuple out twice.
func (i *Instance) forgetLife(peer wire.Addr) {
	i.mu.Lock()
	i.served.dropPeer(peer)
	i.mu.Unlock()
	i.endWaits(peer, false)
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
// relay delivery to self. It runs on the receive loop, and on a space
// that never blocks so does the serve of every admitted op, out and eval:
// nothing it calls may wait for a frame the loop has yet to deliver.
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
	switch m.Type {
	case wire.TDiscover:
		i.handleDiscover(m)
	case wire.TAnnounce:
		i.handleAnnounce(m)
	case wire.TOp, wire.TOut, wire.TEval:
		// Serve work goes through the governor: per-peer quotas,
		// watermark shedding, then the serve itself, right here on a
		// space that never blocks, or the bounded queue and the worker
		// pool on one that may. Settlement traffic below is always
		// handled here, so a loaded queue never delays completions.
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
