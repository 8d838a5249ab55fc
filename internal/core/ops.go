package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tiamat/clock"
	"tiamat/internal/discovery"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// opState tracks one outbound operation (propagated or direct). States
// are pooled: the results channel, contact map, replied set, and queue
// buffer survive across operations, so starting an op costs a pool hit
// instead of several allocations (the channel buffer dominates).
//
// Reuse is safe because handleResult delivers into st.results under
// i.mu, and an op removes itself from i.ops under the same lock before
// draining and returning its state to the pool: once the drain runs, no
// sender can reach the channel again.
type opState struct {
	id      uint64
	results chan *wire.Message
	// The state is the walk's one entry on the instance's deadline queue
	// (propagate): scheduled for the earlier of the next contact timeout
	// and the next hedge, its expiry leaves a tick here.
	clock.Deadline
	tick chan struct{}
	// contacted tracks the retransmission budget per contacted responder;
	// csFree recycles the entries.
	contacted map[wire.Addr]*contactState
	csFree    []*contactState
	// replied tracks responders that already answered, for dedup counting
	// and re-arm suppression.
	replied map[wire.Addr]bool
	// queueBuf backs the responder-list snapshot.
	queueBuf []wire.Addr
	// joins hears the responder list's visibility events while a blocking
	// walk is open; made by the first one this state carries.
	joins *discovery.Subscription
}

func newOpState() any {
	return &opState{
		results:   make(chan *wire.Message, 256),
		tick:      make(chan struct{}, 1),
		contacted: make(map[wire.Addr]*contactState),
		replied:   make(map[wire.Addr]bool),
	}
}

// Expire implements clock.Entry. The tick says only "look again": the walk
// re-derives what is due from each contact's own deadline, so one that
// lands after the op closed, or in the state's next op, does no harm.
func (st *opState) Expire() {
	select {
	case st.tick <- struct{}{}:
	default:
	}
}

// openOp registers a fresh outbound operation under a new op ID: replies
// carrying st.id are delivered into st.results until closeOp retires it.
func (i *Instance) openOp() (*opState, error) {
	st := i.opStates.Get().(*opState)
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		i.putOpState(st)
		return nil, ErrClosed
	}
	i.nextOpID++
	st.id = i.nextOpID
	i.ops[st.id] = st
	i.mu.Unlock()
	return st, nil
}

// closeOp retires an operation and drains its late results: any found
// hold must be released so the tuple is reinstated at its owner. No
// sender can reach the channel after the deletion, so the drained state
// can go back to the pool.
func (i *Instance) closeOp(st *opState) {
	i.mu.Lock()
	delete(i.ops, st.id)
	i.mu.Unlock()
	for {
		select {
		case m := <-st.results:
			i.releaseLate(m)
		default:
			i.putOpState(st)
			return
		}
	}
}

// putOpState returns a drained state to the pool. The caller must have
// removed the op from i.ops (under i.mu) and drained st.results.
func (i *Instance) putOpState(st *opState) {
	for a, cs := range st.contacted {
		*cs = contactState{}
		st.csFree = append(st.csFree, cs)
		delete(st.contacted, a)
	}
	for a := range st.replied {
		delete(st.replied, a)
	}
	i.opStates.Put(st)
}

// newContact hands out a zeroed contactState, recycling released ones.
func (st *opState) newContact() *contactState {
	if n := len(st.csFree); n > 0 {
		cs := st.csFree[n-1]
		st.csFree = st.csFree[:n-1]
		return cs
	}
	return &contactState{}
}

// contactState tracks the retransmission budget for one contacted
// responder within an operation.
type contactState struct {
	attempts int       // transmissions so far
	sentAt   time.Time // first transmission, for Karn-rule RTT sampling
	deadline time.Time // when the current wait for a reply expires
	done     bool      // replied, or given up on
	hedged   bool      // contacted by a hedge firing, not the primary walk
}

// stampBudget records the requester's remaining context budget on an
// outbound TOp when it is tighter than the lease-derived TTL (deadline
// propagation, DESIGN.md §9): the responder then never holds a waiter or
// a tentative removal past the point this operation can use the answer.
// Context deadlines are wall-clock, so the remaining budget is measured
// with time.Until regardless of the instance clock. Budget stays zero
// ("same as TTL") when the context is unbounded or looser than the TTL,
// keeping the frame byte-identical to the pre-Budget encoding — the
// mixed-version fallback (see wire.Message.Budget).
func stampBudget(ctx context.Context, m *wire.Message) {
	m.Budget = 0
	bd, ok := ctx.Deadline()
	if !ok {
		return
	}
	rem := time.Until(bd)
	if rem < time.Millisecond {
		rem = time.Millisecond // lapsed or sub-tick: still tell them it's tiny
	}
	if rem < m.TTL {
		m.Budget = rem
	}
}

// retryWait returns how long to wait for a reply after transmission k
// before retransmitting: the contact timeout plus exponential backoff plus
// up to RetryBackoff of jitter so concurrent operations do not retry in
// lockstep. The jitter comes from the instance's own seeded source
// (Config.RetrySeed): chaos runs replay identically and the global
// math/rand lock stays off the hot path.
func (i *Instance) retryWait(k int) time.Duration {
	wait := i.cfg.ContactTimeout
	if k > 0 {
		wait += i.cfg.RetryBackoff << (k - 1)
	}
	return wait + time.Duration(i.rnd.Int63n(int64(i.cfg.RetryBackoff)))
}

// Out places a tuple in the local space under a negotiated lease (paper
// §2.2: out operates only on the local space by default). The tuple
// becomes reclaimable when the lease expires.
func (i *Instance) Out(t tuple.Tuple, r lease.Requester) error {
	if i.stopping() {
		return ErrClosed
	}
	i.met.Inc(trace.CtrOpsOut)
	lse, err := i.mgr.Grant(lease.OpOut, i.requester(r))
	if err != nil {
		return err
	}
	if err := lse.ConsumeBytes(t.Size()); err != nil {
		lse.Cancel()
		return fmt.Errorf("out %v: %w", t, err)
	}
	sid, err := i.outLeased(t, lse)
	if err != nil {
		lse.Cancel()
		return err
	}
	if sid != 0 {
		lse.ShrinkBytes() // only the stored size stays reserved
		if i.repl != nil {
			// Write the tuple through to its ring backups before returning
			// (replica.go): a successful Out then means the tuple survives
			// this node. ErrClosed mid-wait means it may not have.
			if err := i.replWriteThrough(sid, t, lse); err != nil {
				return err
			}
		}
	} else {
		// Consumed by a waiting taker already; no storage held.
		lse.Cancel()
	}
	return nil
}

// Eval runs a registered active-tuple computation locally under an eval
// lease; the resulting tuple becomes available in the local space when
// the computation finishes. Eval is asynchronous, as in Linda. If the
// lease expires first the computation is halted and no tuple appears
// (paper §2.5).
func (i *Instance) Eval(fn string, args tuple.Tuple, r lease.Requester) error {
	if i.stopping() {
		return ErrClosed
	}
	i.met.Inc(trace.CtrOpsEval)
	i.mu.Lock()
	f, ok := i.evals[fn]
	i.mu.Unlock()
	if !ok {
		return fmt.Errorf("%q: %w", fn, ErrUnknownEval)
	}
	lse, err := i.mgr.Grant(lease.OpEval, i.requester(r))
	if err != nil {
		return err
	}
	release, err := i.mgr.Acquire(lease.ResThreads, 1)
	if err != nil {
		lse.Cancel()
		return fmt.Errorf("eval %q: %w", fn, err)
	}
	i.wg.Add(1)
	go func() {
		defer i.wg.Done()
		defer release()
		i.runEval(f, args, lse)
	}()
	return nil
}

// runEval executes the computation under the lease.
func (i *Instance) runEval(f EvalFunc, args tuple.Tuple, lse *lease.Lease) {
	// Eval functions are application code: a panic cancels this lease
	// and is counted, but never takes the instance down.
	defer func() {
		if r := recover(); r != nil {
			i.met.Inc(trace.CtrPanics)
			i.lastPanic.Store(fmt.Sprintf("eval: %v", r))
			lse.Cancel()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-lse.Done():
			cancel() // lease expired: halt the computation (§2.5)
		case <-ctx.Done():
		}
	}()
	result, err := f(ctx, args)
	if err != nil || lse.Err() != nil {
		lse.Cancel()
		return
	}
	if err := lse.ConsumeBytes(result.Size()); err != nil {
		lse.Cancel()
		return
	}
	sid, err := i.outLeased(result, lse)
	if err != nil || sid == 0 {
		lse.Cancel()
		return
	}
	lse.ShrinkBytes()
	if i.repl != nil {
		_ = i.replWriteThrough(sid, result, lse) // eval is async; best-effort
	}
}

// Rd reads (a copy of) a tuple matching p from the logical space,
// blocking until a match or lease expiry.
func (i *Instance) Rd(ctx context.Context, p tuple.Template, r lease.Requester) (Result, error) {
	res, ok, err := i.logicalOp(ctx, wire.OpRd, p, r)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, ErrNoMatch
	}
	return res, nil
}

// In takes a tuple matching p from the logical space, blocking until a
// match or lease expiry.
func (i *Instance) In(ctx context.Context, p tuple.Template, r lease.Requester) (Result, error) {
	res, ok, err := i.logicalOp(ctx, wire.OpIn, p, r)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, ErrNoMatch
	}
	return res, nil
}

// Rdp reads a matching tuple from the logical space without blocking for
// new tuples: the local space and currently visible instances are probed
// once under the lease budget.
func (i *Instance) Rdp(ctx context.Context, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.logicalOp(ctx, wire.OpRdp, p, r)
}

// Inp takes a matching tuple from the logical space without blocking.
func (i *Instance) Inp(ctx context.Context, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.logicalOp(ctx, wire.OpInp, p, r)
}

func opKind(code wire.OpCode) lease.OpKind {
	switch code {
	case wire.OpRd:
		return lease.OpRd
	case wire.OpRdp:
		return lease.OpRdp
	case wire.OpIn:
		return lease.OpIn
	default:
		return lease.OpInp
	}
}

func opCounter(code wire.OpCode) string {
	switch code {
	case wire.OpRd:
		return trace.CtrOpsRd
	case wire.OpRdp:
		return trace.CtrOpsRdp
	case wire.OpIn:
		return trace.CtrOpsIn
	default:
		return trace.CtrOpsInp
	}
}

// logicalOp runs a read/take against the opportunistic logical space:
// local space first, then propagation to visible instances under the
// lease budget (paper §2.2, §3.1.3).
func (i *Instance) logicalOp(ctx context.Context, code wire.OpCode, p tuple.Template, r lease.Requester) (Result, bool, error) {
	if i.stopping() {
		return Result{}, false, ErrClosed
	}
	i.met.Inc(opCounter(code))
	lse, err := i.mgr.Grant(opKind(code), i.requester(r))
	if err != nil {
		return Result{}, false, err
	}
	defer lse.Cancel()

	// Local phase. For blocking ops the waiter stays registered so a
	// local out during propagation still satisfies the operation.
	var localWait <-chan tuple.Tuple
	if code.Blocking() {
		w := i.local.Wait(p, code.Removes())
		defer w.Cancel()
		select {
		case t, ok := <-w.Chan():
			if ok {
				i.met.Inc(trace.CtrOpsLocalHit)
				i.met.Inc(trace.CtrOpsSatisfied)
				return Result{Tuple: t, From: i.Addr()}, true, nil
			}
		default:
		}
		localWait = w.Chan()
	} else {
		var t tuple.Tuple
		var ok bool
		if code.Removes() {
			t, ok = i.local.Inp(p)
		} else {
			t, ok = i.local.Rdp(p)
		}
		if ok {
			i.met.Inc(trace.CtrOpsLocalHit)
			i.met.Inc(trace.CtrOpsSatisfied)
			return Result{Tuple: t, From: i.Addr()}, true, nil
		}
	}

	// The walk below never contacts this node itself, so a requester that
	// is the last surviving holder of a replica copy must serve it
	// locally. Reads take any live copy; destructive takes pass the same
	// supersede proof as a remote failover (replica.go).
	if i.repl != nil {
		if res, ok := i.replServeLocal(code, p); ok {
			i.met.Inc(trace.CtrOpsLocalHit)
			i.met.Inc(trace.CtrOpsSatisfied)
			return res, true, nil
		}
	}

	res, ok, err := i.propagate(ctx, code, p, lse, localWait)
	if err != nil {
		return Result{}, false, err
	}
	if ok {
		i.met.Inc(trace.CtrOpsSatisfied)
	} else {
		i.met.Inc(trace.CtrOpsEmpty)
	}
	return res, ok, nil
}

// propagate implements the communications manager's outbound side: contact
// cached responders top-down, multicast when the list is exhausted, accept
// the first match, release the rest (paper §3.1.3).
func (i *Instance) propagate(ctx context.Context, code wire.OpCode, p tuple.Template, lse *lease.Lease, localWait <-chan tuple.Tuple) (Result, bool, error) {
	st, err := i.openOp()
	if err != nil {
		return Result{}, false, err
	}
	opID := st.id

	contacted := st.contacted
	multicasted := false
	// winner is the responder whose found reply settled the op.
	var winner wire.Addr
	defer func() {
		i.deadlines.Cancel(st)
		// Only blocking ops leave waiters behind on responders; tell
		// them the operation is over. Nonblocking responders answered
		// immediately and hold nothing beyond their pending holds,
		// which accept/release settles.
		if code.Blocking() {
			i.cancelRemotes(opID, contacted, multicasted, winner)
		}
		i.closeOp(st)
	}()

	ttl := lse.Deadline().Sub(i.clk.Now())
	msg := &wire.Message{Type: wire.TOp, ID: opID, From: i.Addr(), Op: code, Template: p, TTL: ttl}
	stampBudget(ctx, msg)
	// Destructive takes on a replicated cluster carry the Failover flag on
	// every unicast contact: a responder holding only a replica copy may
	// then serve it — provided it can prove every higher-ranked holder
	// dead (replica.go), so an alive primary always keeps its takes. The
	// flag stays off multicasts (see doMulticast).
	mayFailover := code.Removes() && i.repl != nil
	msg.Failover = mayFailover

	// remaining counts replies still expected; nonblocking ops complete
	// when it reaches zero.
	remaining := 0
	replied := st.replied

	// Retry and hedge pacing share st's deadline-queue entry. armTick
	// schedules it for whichever comes first: the moment the earliest
	// outstanding contact has waited long enough for a retransmission (or a
	// give-up), no sooner than a millisecond from now, or hedgeAt, the next
	// hedge firing (zero when none is pending).
	var hedgeAt time.Time
	armTick := func() {
		var next time.Time
		for _, cs := range contacted {
			if !cs.done && (next.IsZero() || cs.deadline.Before(next)) {
				next = cs.deadline
			}
		}
		if !next.IsZero() {
			if floor := i.clk.Now().Add(time.Millisecond); next.Before(floor) {
				next = floor
			}
		}
		if !hedgeAt.IsZero() && (next.IsZero() || hedgeAt.Before(next)) {
			next = hedgeAt
		}
		if next.IsZero() {
			i.deadlines.Cancel(st)
			return
		}
		i.deadlines.Schedule(st, next)
	}

	// All ops contact the responder list incrementally, top-down,
	// ContactFanout at a time (paper §3.1.3: "operation propagation always
	// starts from the top"). Nonblocking ops advance on not-found replies.
	// Blocking ops advance on a hedge cadence (below) — one next-ranked
	// responder per adaptive hedge delay — instead of contacting the whole
	// list at once, so a healthy top contact costs one message and a slow
	// one costs bounded extra latency, never an unbounded stall.
	var queue []wire.Addr
	if !i.cfg.DisableResponderCache {
		st.queueBuf = i.list.SnapshotAppend(st.queueBuf[:0])
		if mayFailover {
			// Make sure the walk reaches the ring-placed replica holders
			// for this template's key: a freshly dead primary's backups may
			// be suspected (and so absent from the snapshot) while still
			// alive and holding the copy.
			if tag, arity, ok := replTemplateKey(p); ok {
				st.queueBuf = i.repl.appendHolders(st.queueBuf, tag, arity)
			}
		}
		queue = st.queueBuf
	}
	contactNext := func(limit int, hedged bool) {
		for limit > 0 && len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			if contacted[a] != nil {
				continue
			}
			if lse.ConsumeRemote() != nil {
				queue = nil
				return
			}
			if err := i.send(a, msg); err == nil {
				now := i.clk.Now()
				cs := st.newContact()
				*cs = contactState{attempts: 1, sentAt: now, hedged: hedged, deadline: now.Add(i.retryWait(1))}
				contacted[a] = cs
				remaining++
				limit--
			}
		}
	}

	// Hedged lookups (DESIGN.md §11): while a blocking op's first contact
	// has not answered within the adaptive hedge delay, fire the same op
	// ID at the next-ranked responder, up to hedgeMax. The serve side's
	// dedup (waits table + served cache) and accept/release settlement
	// make a hedged destructive take effectively-once, so racing
	// responders is safe. A busy refusal suppresses further hedging: an
	// overloaded neighbourhood wants fewer contacts, not more.
	hedging := code.Blocking() && !i.cfg.DisableHedge
	hedgesUsed := 0
	armHedge := func() {
		hedgeAt = time.Time{}
		if hedging && len(queue) > 0 {
			hedgeAt = i.clk.Now().Add(i.hedgeDelay())
		}
	}

	// advanceWalk keeps a blocking walk moving whenever every contact so
	// far has answered (busy, not-found) or exhausted its retries and list
	// entries remain: the completeness guarantee when hedging is off,
	// suppressed, or spent.
	advanceWalk := func() {
		if !code.Blocking() || len(queue) == 0 {
			return
		}
		for _, cs := range contacted {
			if !cs.done {
				return
			}
		}
		contactNext(i.cfg.ContactFanout, false)
		armTick()
	}

	contactNext(i.cfg.ContactFanout, false)
	armHedge()
	armTick()

	// unknownAudience is set when the transport cannot count multicast
	// recipients (real UDP); nonblocking ops then wait out the lease
	// rather than concluding nobody is there.
	unknownAudience := false
	doMulticast := func() {
		if multicasted && !i.cfg.ContinuousDiscovery {
			return
		}
		if lse.ConsumeRemote() != nil {
			return
		}
		// The failover marker rides unicast contacts only (DESIGN.md §13):
		// a multicast is how the walk finds responders it does not know,
		// and a failover take is addressed to ranked holders it does. The
		// multicast form is a copy; msg stays as the unicast contacts use it.
		mc := msg
		if msg.Failover {
			plain := *msg
			plain.Failover = false
			mc = &plain
		}
		n, err := i.multicast(mc)
		if err == nil {
			if n < 0 {
				unknownAudience = true
			} else {
				remaining += n
			}
			multicasted = true
			i.met.Inc(trace.CtrDiscoverRounds)
		}
	}
	if remaining == 0 || i.cfg.DisableResponderCache {
		doMulticast()
	}
	if remaining == 0 && !unknownAudience && !code.Blocking() {
		return Result{}, false, nil // nobody visible: nothing to wait for
	}

	// tryConcludeNB decides whether a nonblocking op is over: advance down
	// the responder list before resorting to a multicast (paper §3.1.3:
	// "if the end of the list is reached, and the request is not
	// satisfied, then another multicast may be used"), then conclude
	// not-found once nobody is left to answer.
	tryConcludeNB := func() bool {
		if code.Blocking() || remaining > 0 {
			return false
		}
		if len(queue) > 0 {
			contactNext(i.cfg.ContactFanout, false)
			armTick()
			if remaining > 0 {
				return false
			}
		}
		if unknownAudience {
			return false
		}
		if !multicasted {
			doMulticast()
			if remaining > 0 || unknownAudience {
				return false
			}
		}
		return true
	}

	var rediscover <-chan time.Time
	if code.Blocking() && i.cfg.ContinuousDiscovery {
		rediscover = i.clk.After(i.cfg.RediscoverInterval)
	}

	// Blocking ops subscribe to the responder list's visibility events so
	// a peer that walks into range mid-wait is contacted immediately (the
	// paper's §2 premise: the logical space is the union of *currently*
	// visible nodes, not the set visible at op start). A nil channel
	// blocks forever, so nonblocking ops and DisableRearm runs never take
	// the case below.
	var joins <-chan discovery.Event
	if code.Blocking() && !i.cfg.DisableRearm {
		if st.joins == nil {
			st.joins = discovery.NewSubscription()
		}
		i.list.Attach(st.joins)
		defer i.list.Detach(st.joins)
		joins = st.joins.Events()
	}

	for {
		select {
		case t, ok := <-localWait:
			if ok {
				i.met.Inc(trace.CtrOpsLocalHit)
				return Result{Tuple: t, From: i.Addr()}, true, nil
			}
			localWait = nil // store closed under us

		case m := <-st.results:
			remaining--
			if cs := contacted[m.From]; cs != nil && !cs.done {
				cs.done = true
				// Feed the health layer: busy refusals and a blocking op's
				// not-found (a serve-lease expiry notice) carry no timing
				// signal; everything else does.
				i.noteReply(m.From, cs.attempts, cs.sentAt, !m.Busy && (m.Found || !code.Blocking()))
			}
			if m.Busy && hedging {
				// The neighbourhood is shedding load; hedging would add
				// contacts exactly when peers want fewer. Stop the hedge
				// cadence for this op — the retry-exhaustion walk below
				// still guarantees the rest of the list is reached.
				hedging = false
				armHedge()
				i.met.Inc(trace.CtrHedgeSuppressed)
			}
			if m.Type == wire.TResult {
				if replied[m.From] {
					i.met.Inc(trace.CtrDedupDrops)
				}
				replied[m.From] = true
			}
			if m.Type == wire.TResult && m.Found {
				if cs := contacted[m.From]; cs != nil && cs.hedged {
					i.met.Inc(trace.CtrHedgeWins)
				}
				if code.Removes() && m.HoldID != 0 {
					// First responder wins: accept this hold; the
					// deferred drain releases any later ones.
					i.acceptHold(m.From, m.HoldID, lse)
					// A reply carrying a replica identity means other
					// holders keep copies of this tuple: tell them it is
					// consumed (replica.go).
					i.replInvalidateSiblings(m)
				}
				i.met.Inc(trace.CtrOpsRemoteHit)
				winner = m.From
				return Result{Tuple: m.Tuple, From: m.From}, true, nil
			}
			armTick() // one contact fewer to wait on, perhaps no hedge
			advanceWalk()
			if tryConcludeNB() {
				return Result{}, false, nil
			}

		case <-st.tick:
			now := i.clk.Now()
			if !hedgeAt.IsZero() && !now.Before(hedgeAt) {
				// No answer within the adaptive hedge delay: race the next
				// ranked responder with the same op ID. Once the hedge budget
				// is spent, the next firing contacts everyone left — the
				// staged walk bounds added tail latency, never completeness.
				if hedgesUsed >= hedgeMax {
					contactNext(len(queue), false)
				} else {
					hedgesUsed++
					i.met.Inc(trace.CtrHedges)
					contactNext(1, true)
				}
				armHedge()
			}
			timedOut := false
			for _, cs := range contacted {
				if !cs.done && !now.Before(cs.deadline) {
					timedOut = true
					break
				}
			}
			if !timedOut {
				armTick()
				break
			}
			// The local replica store may have become servable since the
			// pre-walk attempt: a higher-ranked holder died mid-walk, or the
			// failover grace armed then has now elapsed. Re-try it on each
			// contact timeout — the walk never contacts this node itself.
			if i.repl != nil {
				if res, ok := i.replServeLocal(code, p); ok {
					i.met.Inc(trace.CtrOpsLocalHit)
					return res, true, nil
				}
			}
			for a, cs := range contacted {
				if cs.done || now.Before(cs.deadline) {
					continue
				}
				i.met.Inc(trace.CtrContactTimeouts)
				if cs.attempts >= i.cfg.RetryAttempts {
					// Out of retries. Silence from a nonblocking probe is
					// a soft failure; a blocking responder is expected to
					// stay silent until it has a match, so no blame there.
					cs.done = true
					remaining--
					if !code.Blocking() {
						i.list.Fail(a)
					}
					continue
				}
				if lse.ConsumeRemote() != nil {
					cs.done = true // lease budget exhausted: stop trying
					remaining--
					continue
				}
				cs.attempts++
				msg.TTL = lse.Deadline().Sub(now)
				stampBudget(ctx, msg)
				_ = i.send(a, msg)
				i.met.Inc(trace.CtrRetries)
				cs.deadline = now.Add(i.retryWait(cs.attempts))
			}
			advanceWalk()
			armTick()
			if tryConcludeNB() {
				return Result{}, false, nil
			}

		case <-lse.Done():
			// Lease expired: stop trying and return nothing (§2.5).
			i.met.Inc(trace.CtrOpsExpired)
			return Result{}, false, nil

		case <-ctx.Done():
			return Result{}, false, ctx.Err()

		case ev := <-joins:
			// Re-arm: contact the newcomer with the same op ID — the serve
			// side's dedup (waits table + served cache) makes a duplicate
			// contact harmless, so this is safe even when the "newcomer"
			// already heard a multicast of this op. Skips: ourselves,
			// peers that already answered this op, and peers with a
			// contact still in flight. A peer we gave up on re-qualifies —
			// its reappearance is exactly the news we were missing.
			if ev.Kind != discovery.EventJoin || ev.Addr == i.Addr() || replied[ev.Addr] {
				break
			}
			if cs := contacted[ev.Addr]; cs != nil && !cs.done {
				break
			}
			if lse.ConsumeRemote() != nil {
				break // remote budget exhausted: the lease bounds re-arms too
			}
			msg.TTL = lse.Deadline().Sub(i.clk.Now())
			stampBudget(ctx, msg)
			if i.send(ev.Addr, msg) != nil {
				break
			}
			now := i.clk.Now()
			if cs := contacted[ev.Addr]; cs != nil {
				cs.done = false
				cs.attempts = 1
				cs.sentAt = now
				cs.deadline = now.Add(i.retryWait(1))
			} else {
				cs := st.newContact()
				*cs = contactState{attempts: 1, sentAt: now, deadline: now.Add(i.retryWait(1))}
				contacted[ev.Addr] = cs
			}
			remaining++
			i.met.Inc(trace.CtrRearms)
			armTick()

		case <-rediscover:
			// The model's continuous mode: instances that became
			// visible during the operation are included (§2.2).
			msg.TTL = lse.Deadline().Sub(i.clk.Now())
			stampBudget(ctx, msg)
			doMulticast()
			rediscover = i.clk.After(i.cfg.RediscoverInterval)
		}
	}
}

// pendingAccept is an accept retransmission in flight: the TAccept is
// resent each time its deadline-queue entry expires, until the owner acks
// (finishAccept cancels the entry), the grace window passes, or the
// instance closes. attempt is guarded by Instance.mu.
type pendingAccept struct {
	clock.Deadline
	i       *Instance
	owner   wire.Addr
	msg     *wire.Message // msg.ID is the ack ID the accept is registered under
	giveUp  time.Time     // past the owner's grace window the accept is moot
	attempt int
}

// acceptHold claims a tentative hold at its owner (first responder wins,
// paper §3.1.3). The TAccept is retransmitted until the owner
// acknowledges it: a lost accept would otherwise let the owner's grace
// deadline reinstate a tuple the requester is already using — a
// duplication.
//
// The retransmission is deadline-driven, not goroutine-driven: a
// take-heavy workload settles one accept per take, and a goroutine per
// settlement cannot keep up with a tight issue loop — the unsettled leases
// back up the manager toward its MaxActive watermark and the governor
// starts shedding healthy traffic (the PR 7 regression). The happy path
// here is one send plus one queue entry that the ack unlinks; no timer is
// armed for it.
func (i *Instance) acceptHold(owner wire.Addr, holdID uint64, lse *lease.Lease) {
	i.rememberAccepted(acceptKey{owner: owner, holdID: holdID})
	budget := lse.Deadline().Sub(i.clk.Now()) + i.cfg.HoldGrace
	if budget < i.cfg.HoldGrace {
		budget = i.cfg.HoldGrace
	}
	giveUp := i.clk.Now().Add(budget)

	ackID := i.nextOp()
	msg := &wire.Message{Type: wire.TAccept, ID: ackID, From: i.Addr(), HoldID: holdID}
	pa := &pendingAccept{i: i, owner: owner, msg: msg, giveUp: giveUp, attempt: 1}
	// Register before sending: over a synchronous transport the ack can
	// arrive before send returns, and an ack that finds nothing registered
	// settles nothing — the accept would be retransmitted for no reason.
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return
	}
	i.pendAccepts[ackID] = pa
	i.mu.Unlock()
	if i.send(owner, msg) != nil {
		i.finishAccept(ackID) // owner unreachable: its grace deadline takes over
		return
	}
	i.scheduleAcceptRetry(pa, 1)
}

// scheduleAcceptRetry schedules pa's next TAccept retransmission, unless
// the ack (or teardown) already settled it.
func (i *Instance) scheduleAcceptRetry(pa *pendingAccept, attempt int) {
	at := i.clk.Now().Add(i.retryWait(attempt))
	i.mu.Lock()
	if i.pendAccepts[pa.msg.ID] == pa {
		i.deadlines.Schedule(pa, at)
	}
	i.mu.Unlock()
}

// Expire implements clock.Entry: no ack within retryWait(attempt), so the
// accept is retransmitted.
func (pa *pendingAccept) Expire() {
	i, ackID := pa.i, pa.msg.ID
	defer i.recoverPanic("accept-hold")
	i.mu.Lock()
	if i.pendAccepts[ackID] != pa {
		i.mu.Unlock()
		return
	}
	if i.closed || !i.clk.Now().Before(pa.giveUp) {
		// Past the owner's grace window (or closing): the accept is moot.
		delete(i.pendAccepts, ackID)
		i.mu.Unlock()
		return
	}
	pa.attempt++
	attempt := pa.attempt
	i.mu.Unlock()
	if i.send(pa.owner, pa.msg) != nil {
		i.mu.Lock()
		delete(i.pendAccepts, ackID)
		i.mu.Unlock()
		return // owner unreachable: its grace deadline takes over
	}
	i.met.Inc(trace.CtrRetries)
	i.met.Inc(trace.CtrAcceptRetransmits)
	i.scheduleAcceptRetry(pa, attempt)
}

// finishAccept settles the pending accept named by an inbound ack ID.
// It reports whether the ID belonged to one.
func (i *Instance) finishAccept(id uint64) bool {
	i.mu.Lock()
	pa, ok := i.pendAccepts[id]
	if ok {
		delete(i.pendAccepts, id)
	}
	i.mu.Unlock()
	if !ok {
		return false
	}
	i.deadlines.Cancel(pa)
	return true
}

// cancelRemotes tells contacted instances (and, if the operation was
// multicast, all listeners) that the operation is over so they can free
// any held waiters. The winner — the responder whose found reply settled
// the op, if any — is left out: its wait ended with that reply, so a
// cancel would find nothing to stop. Every contact that lost (hedged,
// re-armed or walked) still holds a waiter and still gets one.
func (i *Instance) cancelRemotes(opID uint64, contacted map[wire.Addr]*contactState, multicasted bool, winner wire.Addr) {
	if i.isClosed() {
		return
	}
	if !multicasted && (len(contacted) == 0 || len(contacted) == 1 && contacted[winner] != nil) {
		return // the winner was the only contact: nobody is left holding a waiter
	}
	cancel := &wire.Message{Type: wire.TCancel, ID: opID, From: i.Addr()}
	for a := range contacted {
		if a != winner {
			_ = i.send(a, cancel)
		}
	}
	if multicasted {
		_, _ = i.multicast(cancel)
	}
}

// releaseLate releases a found-result that lost the race (or arrived
// after completion), reinstating the tuple at its owner. Results naming a
// hold this instance accepted are duplicates of the winning reply:
// releasing them could overtake the accept and reinstate a taken tuple,
// so they are dropped instead.
func (i *Instance) releaseLate(m *wire.Message) {
	if m.Type != wire.TResult || !m.Found || m.HoldID == 0 || i.isClosed() {
		return
	}
	i.mu.Lock()
	accepted := i.accepted[acceptKey{owner: m.From, holdID: m.HoldID}]
	i.mu.Unlock()
	if accepted {
		i.met.Inc(trace.CtrDedupDrops)
		return
	}
	_ = i.send(m.From, &wire.Message{
		Type: wire.TRelease, ID: m.ID, From: i.Addr(), HoldID: m.HoldID,
	})
}

// handleResult routes an inbound TResult/TAck to its operation, or
// releases it if the operation has already completed.
func (i *Instance) handleResult(m *wire.Message) {
	if m.Busy {
		// An explicit admission refusal from an overloaded responder.
		// Counted at dispatch level so late busy replies (after the op
		// concluded) are visible too: on a reliable transport every shed
		// the responders sent shows up here.
		i.met.Inc(trace.CtrBusyReceived)
	}
	if m.Type == wire.TResult {
		// Every responder is worth remembering, including late ones and
		// losers of the first-responder race (paper §3.1.3: instances
		// responding to the multicast are appended to the list). One that
		// actually had the tuple goes straight to the top: the next
		// operation should start where the last one was satisfied.
		if m.Found {
			i.list.Promote(m.From)
		} else {
			i.list.Observe(m.From)
		}
	}
	if m.Type == wire.TAck {
		// A pure ack may settle a pending accept directly. This build
		// sends one ack per frame, but a peer on an older build may
		// coalesce (wire.Message AckIDs): each covered ID is handled as
		// if it had arrived as its own ack frame — settling its pending
		// accept if one is registered, otherwise waking the operation
		// waiting on it.
		if len(m.AckIDs) > 0 {
			i.met.Add(trace.CtrAcksCoalesced, int64(len(m.AckIDs)))
		}
		for _, id := range m.AckIDs {
			if id != m.ID && !i.finishAccept(id) && !i.replFinishAck(id, m) {
				i.deliverResult(id, m)
			}
		}
		if i.finishAccept(m.ID) {
			return
		}
		// Replicate/repair write-throughs ack the same way accepts do; a
		// settled flight never reaches an operation channel.
		if i.replFinishAck(m.ID, m) {
			return
		}
	}
	i.deliverResult(m.ID, m)
}

// deliverResult hands a reply to the outbound operation waiting on id.
// Delivery happens under i.mu: an op deletes itself from i.ops under the
// same lock before recycling its (pooled) state, so a late reply can
// never land in a reused channel.
func (i *Instance) deliverResult(id uint64, m *wire.Message) {
	i.mu.Lock()
	st, ok := i.ops[id]
	if ok {
		select {
		case st.results <- m:
			i.mu.Unlock()
			return
		default:
			// Overflowing op inbox: treat as lost race.
		}
	}
	i.mu.Unlock()
	i.releaseLate(m)
}

// Spaces discovers currently visible spaces: it multicasts a probe and
// collects announcements until ctx is done or every probed instance has
// answered. The local space is always first in the result.
func (i *Instance) Spaces(ctx context.Context) ([]SpaceInfo, error) {
	if i.stopping() {
		return nil, ErrClosed
	}
	id := i.nextOp()
	ch := make(chan SpaceInfo, 256)
	i.mu.Lock()
	i.announces[id] = ch
	i.mu.Unlock()
	defer func() {
		i.mu.Lock()
		delete(i.announces, id)
		i.mu.Unlock()
	}()

	out := []SpaceInfo{{Addr: i.Addr(), Persistent: i.cfg.Persistent}}
	n, err := i.multicast(&wire.Message{Type: wire.TDiscover, ID: id, From: i.Addr()})
	if err != nil || n == 0 {
		return out, err
	}
	for len(out) < n+1 {
		select {
		case info := <-ch:
			out = append(out, info)
			i.list.Observe(info.Addr)
		case <-ctx.Done():
			return out, nil // partial results are results
		}
	}
	return out, nil
}

// --- direct remote operations (paper §2.4) ------------------------------

// OutAt performs an out on the specific remote space addr. The remote
// instance negotiates its own lease for the storage; refusal surfaces as
// ErrRemoteRefused.
func (i *Instance) OutAt(addr wire.Addr, t tuple.Tuple, r lease.Requester) error {
	if addr == i.Addr() {
		return i.Out(t, r)
	}
	if i.stopping() {
		return ErrClosed
	}
	i.met.Inc(trace.CtrOpsOut)
	lse, err := i.mgr.Grant(lease.OpOut, i.requester(r))
	if err != nil {
		return err
	}
	defer lse.Cancel()
	if err := lse.ConsumeRemote(); err != nil {
		return err
	}
	m := &wire.Message{Type: wire.TOut, From: i.Addr(), TTL: lse.Deadline().Sub(i.clk.Now()), Tuple: t}
	ack, err := i.rpc(addr, m, lse)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("%s: %s: %w", addr, ack.Err, ErrRemoteRefused)
	}
	return nil
}

// EvalAt performs an eval on the specific remote space addr. The function
// name must be registered there.
func (i *Instance) EvalAt(addr wire.Addr, fn string, args tuple.Tuple, r lease.Requester) error {
	if addr == i.Addr() {
		return i.Eval(fn, args, r)
	}
	if i.stopping() {
		return ErrClosed
	}
	i.met.Inc(trace.CtrOpsEval)
	lse, err := i.mgr.Grant(lease.OpEval, i.requester(r))
	if err != nil {
		return err
	}
	defer lse.Cancel()
	if err := lse.ConsumeRemote(); err != nil {
		return err
	}
	m := &wire.Message{Type: wire.TEval, From: i.Addr(), Func: fn, TTL: lse.Deadline().Sub(i.clk.Now()), Tuple: args}
	ack, err := i.rpc(addr, m, lse)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("%s: %s: %w", addr, ack.Err, ErrRemoteRefused)
	}
	return nil
}

// directOp runs a read/take against one specific remote space.
func (i *Instance) directOp(ctx context.Context, addr wire.Addr, code wire.OpCode, p tuple.Template, r lease.Requester) (Result, bool, error) {
	if i.stopping() {
		return Result{}, false, ErrClosed
	}
	i.met.Inc(opCounter(code))
	lse, err := i.mgr.Grant(opKind(code), i.requester(r))
	if err != nil {
		return Result{}, false, err
	}
	defer lse.Cancel()
	if addr == i.Addr() {
		return i.directLocal(code, p, lse)
	}
	if err := lse.ConsumeRemote(); err != nil {
		return Result{}, false, err
	}

	st, err := i.openOp()
	if err != nil {
		return Result{}, false, err
	}
	opID := st.id
	// settled is set when addr's own found reply ended the op: its wait
	// ended with that reply and there is nothing left there to cancel.
	settled := false
	defer func() {
		if code.Blocking() && !settled && !i.isClosed() {
			_ = i.send(addr, &wire.Message{Type: wire.TCancel, ID: opID, From: i.Addr()})
		}
		i.closeOp(st)
	}()

	// Every transmission is a fresh frame stamped with the time left.
	contact := func() error {
		msg := &wire.Message{Type: wire.TOp, ID: opID, From: i.Addr(), Op: code,
			Template: p, TTL: lse.Deadline().Sub(i.clk.Now())}
		stampBudget(ctx, msg)
		return i.send(addr, msg)
	}
	sentAt := i.clk.Now()
	if err := contact(); err != nil {
		return Result{}, false, err
	}
	attempts := 1
	retry := i.clk.After(i.retryWait(attempts))
	for {
		select {
		case m := <-st.results:
			if m.From == addr {
				i.noteReply(addr, attempts, sentAt, !m.Busy && (m.Found || !code.Blocking()))
			}
			if m.Type == wire.TResult && m.Found {
				if code.Removes() && m.HoldID != 0 {
					i.acceptHold(m.From, m.HoldID, lse)
					i.replInvalidateSiblings(m)
				}
				settled = m.From == addr
				return Result{Tuple: m.Tuple, From: m.From}, true, nil
			}
			if !code.Blocking() {
				return Result{}, false, nil
			}
		case <-retry:
			retry = nil // a nil channel blocks: retries stop when exhausted
			if attempts < i.cfg.RetryAttempts && lse.ConsumeRemote() == nil {
				attempts++
				_ = contact()
				i.met.Inc(trace.CtrRetries)
				retry = i.clk.After(i.retryWait(attempts))
			}
		case <-lse.Done():
			return Result{}, false, nil
		case <-ctx.Done():
			return Result{}, false, ctx.Err()
		}
	}
}

// directLocal serves the addr==self case of direct operations.
func (i *Instance) directLocal(code wire.OpCode, p tuple.Template, lse *lease.Lease) (Result, bool, error) {
	if code.Blocking() {
		w := i.local.Wait(p, code.Removes())
		defer w.Cancel()
		select {
		case t, ok := <-w.Chan():
			if ok {
				return Result{Tuple: t, From: i.Addr()}, true, nil
			}
			return Result{}, false, ErrClosed
		case <-lse.Done():
			return Result{}, false, nil
		}
	}
	var t tuple.Tuple
	var ok bool
	if code.Removes() {
		t, ok = i.local.Inp(p)
	} else {
		t, ok = i.local.Rdp(p)
	}
	if !ok {
		return Result{}, false, nil
	}
	return Result{Tuple: t, From: i.Addr()}, true, nil
}

// RdAt reads from the specific space addr, blocking until match or lease
// expiry.
func (i *Instance) RdAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, error) {
	res, ok, err := i.directOp(ctx, addr, wire.OpRd, p, r)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, ErrNoMatch
	}
	return res, nil
}

// InAt takes from the specific space addr, blocking until match or lease
// expiry.
func (i *Instance) InAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, error) {
	res, ok, err := i.directOp(ctx, addr, wire.OpIn, p, r)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, ErrNoMatch
	}
	return res, nil
}

// RdpAt probes the specific space addr without blocking.
func (i *Instance) RdpAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.directOp(ctx, addr, wire.OpRdp, p, r)
}

// InpAt takes from the specific space addr without blocking.
func (i *Instance) InpAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.directOp(ctx, addr, wire.OpInp, p, r)
}

// OutBack attempts to place a tuple back at the instance a previous
// read/take obtained it from (paper §2.4's third out variant). If the
// destination is unavailable the configured RoutePolicy applies.
func (i *Instance) OutBack(res Result, r lease.Requester) error {
	err := i.OutAt(res.From, res.Tuple, r)
	if err == nil || !errors.Is(err, transport.ErrUnreachable) {
		return err
	}
	switch i.cfg.RoutePolicy {
	case RouteAbandon:
		return fmt.Errorf("destination %s unreachable: %w", res.From, ErrAbandoned)
	case RouteRelay:
		if relayErr := i.relayOut(res); relayErr == nil {
			return nil
		}
		return i.Out(res.Tuple, r)
	default: // RouteLocal
		return i.Out(res.Tuple, r)
	}
}

// rpc sends a request that expects a TAck correlated by ID.
func (i *Instance) rpc(addr wire.Addr, m *wire.Message, lse *lease.Lease) (*wire.Message, error) {
	st, err := i.openOp()
	if err != nil {
		return nil, err
	}
	defer i.closeOp(st)
	m.ID = st.id
	sentAt := i.clk.Now()
	if err := i.send(addr, m); err != nil {
		return nil, err
	}
	attempts := 1
	retry := i.clk.After(i.retryWait(attempts))
	for {
		select {
		case ack := <-st.results:
			if ack.From == addr {
				i.noteReply(addr, attempts, sentAt, !ack.Busy)
			}
			return ack, nil
		case <-retry:
			retry = nil
			if attempts < i.cfg.RetryAttempts && lse.ConsumeRemote() == nil {
				attempts++
				again := *m
				again.TTL = lse.Deadline().Sub(i.clk.Now())
				_ = i.send(addr, &again)
				i.met.Inc(trace.CtrRetries)
				retry = i.clk.After(i.retryWait(attempts))
			}
		case <-lse.Done():
			return nil, fmt.Errorf("%s: no ack within lease: %w", addr, lse.Err())
		case <-i.stopped:
			return nil, ErrClosed
		}
	}
}
