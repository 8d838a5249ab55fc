package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"tiamat/clock"
	"tiamat/internal/discovery"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// opState is one outbound operation: the ID its replies are routed by,
// the channel they land in, and its walk. States are pooled per instance:
// the results and found channels, contact map, replied list, and queue
// buffer survive across operations, so starting an op costs a pool hit
// instead of several allocations (the channel buffer dominates).
//
// Reuse is safe because handleResult delivers into st.results under
// i.mu, and an op removes itself from i.ops under the same lock before
// draining and returning its state to the pool: once the drain runs, no
// sender can reach the channel again.
type opState struct {
	i       *Instance
	id      uint64
	results chan *wire.Message
	// The state is the walk's one entry on the instance's deadline queue:
	// scheduled for the earliest of the next contact timeout, hedge and
	// rediscovery, its expiry leaves a tick here.
	clock.Deadline
	tick chan struct{}
	// found carries the one delivery of the op's local registration: the
	// state is that registration's sink (Deliver), a Take when take is set.
	found chan localMatch
	take  bool
	// contacted tracks the retransmission budget per contacted responder;
	// csFree recycles the entries.
	contacted map[wire.Addr]*contactState
	csFree    []*contactState
	// replied lists the responders that answered, for dedup counting and
	// re-arm suppression; skip, those of a nonblocking op that would only
	// replay their answer (not a busy one), for the multicast to pass over.
	replied []wire.Addr
	skip    []wire.Addr
	// queueBuf backs the walk's queue.
	queueBuf []wire.Addr
	// sub hears the responder list's visibility events while a blocking
	// walk is open; made by the first one this state carries.
	sub *discovery.Subscription
	walk
}

// walk is the part of an op's state that lasts one op, zeroed when the
// state is pooled. Every outbound operation — logical or direct rd/in/
// rdp/inp, rpc — is one loop over four events, each an opState method: a
// reply, the deadline tick (which the op lease's end leaves too), a
// visibility join, a local hit. Its audience comes from the entry point:
// the responder list (to "", paper §3.1.3), with hedging, re-arming,
// multicast and the failover flag; or one fixed address (§2.4) with one
// contact and its retransmissions — none at all for this instance's own.
// Retry, hedge and rediscovery pacing all ride the state's one deadline
// entry.
type walk struct {
	ctx context.Context
	lse *lease.Lease
	// msg is the frame contacts are sent. A sent frame is never written:
	// each retransmission, re-arm or rediscovery sends a fresh copy
	// stamped with the time left, which later contacts then share.
	msg *wire.Message
	// mcast is the multicast's copy of msg when it must differ: no
	// failover marker, Skip aliasing skip. The transport reads it only
	// during the call.
	mcast wire.Message
	to    wire.Addr
	spare *pendingAccept   // a take's accept record (takeFrames)
	local space.Parked     // a local match ends the walk; nil once settled
	joins <-chan wire.Addr // nil unless re-arming

	queue       []wire.Addr // not contacted yet, best first
	remaining   int         // replies still expected
	multicasted bool
	// unknownAudience is set when the transport cannot count multicast
	// recipients (real UDP); nonblocking ops then wait out the lease
	// rather than concluding nobody is there.
	unknownAudience       bool
	hedging               bool
	hedgesUsed            int
	hedgeAt, rediscoverAt time.Time // zero when none is pending
	winner                wire.Addr // whose found reply settled the op
	// now is the clock reading of the event being handled: taken once
	// when the walk starts and once per wake-up (reply, tick, join), it
	// stamps every deadline, contact and sample that event sets
	// (DESIGN.md §7, "One reading per event").
	now time.Time

	over bool
	res  Result
	ok   bool
	err  error
}

func newOpState(i *Instance) *opState {
	return &opState{
		i:         i,
		results:   make(chan *wire.Message, 256),
		tick:      make(chan struct{}, 1),
		found:     make(chan localMatch, 1),
		contacted: make(map[wire.Addr]*contactState),
	}
}

// Expire implements clock.Entry. The tick says only "look again": the walk
// re-derives what is due from each pending instant of its own, so one that
// lands late, after the op closed, or in the state's next op does no harm.
func (st *opState) Expire() {
	select {
	case st.tick <- struct{}{}:
	default:
	}
}

// LeaseEnded implements lease.EndHook: the op's lease ending is one more
// tick, on which onTick ends the walk. The lease outlives the walk and is
// cancelled after it, so that tick lands in a pooled state or its next op.
func (st *opState) LeaseEnded() { st.Expire() }

// localMatch is the delivery of an op's local registration: the match,
// or ok false for a Take the space withdrew (space.Sink).
type localMatch struct {
	t  tuple.Tuple
	ok bool
}

// Deliver implements space.Sink for the op's local registration: a local
// in's removal is final, so its hold is accepted at once, on the
// goroutine of the Out that made the match. The space calls it at most
// once per registration, and the op reads found before its state goes
// back to the pool (dropLocal), so the send never blocks.
func (st *opState) Deliver(t tuple.Tuple, h space.Hold) {
	if h != nil {
		h.Accept()
	}
	st.found <- localMatch{t, h != nil || !st.take}
}

// dropLocal withdraws the op's local registration, if it has one left,
// and returns the delivery the space committed to it first: a match has
// left the space, so it is the op's.
func (st *opState) dropLocal() localMatch {
	local := st.local
	st.local = nil
	if local == nil || local.Cancel() {
		return localMatch{}
	}
	return <-st.found
}

// openOp registers a fresh outbound operation under a new op ID: replies
// carrying st.id are delivered into st.results until closeOp retires it.
func (i *Instance) openOp() (*opState, error) {
	st := i.opStates.Get().(*opState)
	i.mu.Lock()
	if i.closed.Load() {
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

// closeOp retires an operation: its local registration, deadline entry
// and subscription go, a blocking walk's contacts hear it is over, and
// late results are drained — any found hold must be released so the
// tuple is reinstated at its owner. No sender can reach the channels
// after the deletion, so the drained state can go back to the pool.
func (i *Instance) closeOp(st *opState) {
	st.dropLocal()
	i.deadlines.Cancel(st)
	if st.joins != nil {
		i.list.Detach(st.sub)
	}
	// Only blocking ops leave waiters behind on responders. Nonblocking
	// responders answered immediately and hold nothing beyond their
	// pending holds, which accept/release settles.
	if st.msg != nil && st.msg.Op.Blocking() {
		i.cancelRemotes(st.id, st.contacted, st.multicasted, st.winner)
	}
	i.mu.Lock()
	delete(i.ops, st.id)
	i.retiredLocked()
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
	st.replied, st.skip = st.replied[:0], st.skip[:0]
	st.walk = walk{}
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
// and the field is then not encoded (see wire.Message.Budget).
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
// up to one backoff of jitter so concurrent operations do not retry in
// lockstep. The jitter comes from the instance's own seeded source
// (Config.RetrySeed): chaos runs replay identically and the global
// math/rand lock stays off the hot path.
func (i *Instance) retryWait(k int) time.Duration {
	wait := i.cfg.ContactTimeout
	if k > 0 {
		wait += i.tm.backoff << (k - 1)
	}
	return wait + time.Duration(i.rnd.Int63n(int64(i.tm.backoff)))
}

// Out places a tuple in the local space under a negotiated lease (paper
// §2.2: out operates only on the local space by default). The tuple
// becomes reclaimable when the lease expires. An Out that races its own
// node's Close returns ErrClosed, whichever part of the node noticed the
// Close first.
func (i *Instance) Out(t tuple.Tuple, r lease.Requester) error {
	if i.stopping() {
		return ErrClosed
	}
	i.ctr.opsOut.Inc()
	offer, err := i.mgr.Negotiate(lease.OpOut, i.requester(r))
	if err != nil {
		return i.closedOr(err)
	}
	// With replication on, a successful Out means the tuple survives this
	// node: out waits for the backups' acks. ErrClosed means it may not
	// have: Close began first, and no backup acked a copy.
	if err := i.out(t, offer, true, i.clk.Now()); err != nil {
		return i.closedOr(err)
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
	i.ctr.opsEval.Inc()
	f, ok := i.evalFunc(fn)
	if !ok {
		return fmt.Errorf("%q: %w", fn, ErrUnknownEval)
	}
	lse, err := i.mgr.Grant(lease.OpEval, i.requester(r))
	if err != nil {
		return err
	}
	if err := i.startEval(f, args, lse); err != nil {
		return fmt.Errorf("eval %q: %w", fn, err)
	}
	return nil
}

// evalFunc returns the function registered under name. Eval and a peer's
// EvalAt look it up before they ask for a lease.
func (i *Instance) evalFunc(name string) (EvalFunc, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f, ok := i.evals[name]
	return f, ok
}

// startEval runs f under lse, for Eval and a peer's EvalAt alike, on a
// thread allocated through the lease manager's thread factory (paper
// §3.1.1). With no thread left the lease is cancelled and that is the
// error.
func (i *Instance) startEval(f EvalFunc, args tuple.Tuple, lse *lease.Lease) error {
	release, err := i.mgr.Acquire(lease.ResThreads, 1)
	if err != nil {
		lse.Cancel()
		return err
	}
	i.wg.Add(1)
	go func() {
		defer i.wg.Done()
		defer release()
		i.runEval(f, args, lse)
	}()
	return nil
}

// endEval halts an eval's computation when its lease ends (§2.5).
type endEval context.CancelFunc

func (c endEval) LeaseEnded() { c() }

// runEval executes the computation under the lease.
func (i *Instance) runEval(f EvalFunc, args tuple.Tuple, lse *lease.Lease) {
	// Eval functions are application code: a panic cancels this lease
	// and is counted, but never takes the instance down.
	defer func() {
		if r := recover(); r != nil {
			i.ctr.panics.Inc()
			i.lastPanic.Store(fmt.Sprintf("eval: %v", r))
			lse.Cancel()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lse.OnEnd(endEval(cancel))
	result, err := f(ctx, args)
	if err != nil || lse.Err() != nil {
		lse.Cancel()
		return
	}
	// The eval's lease hands its slot, deadline and remote budget to its
	// result's reservation.
	size := result.Size()
	if err := lse.ConsumeBytes(size); err != nil {
		lse.Cancel()
		return
	}
	i.mgr.Adopt(1, size)
	expiry, remotes := lse.Deadline(), lse.RemotesLeft()
	lse.Cancel()
	_ = i.place(result, size, expiry, remotes, true, i.clk.Now()) // eval is async: nobody to tell
}

// Rd reads (a copy of) a tuple matching p from the logical space,
// blocking until a match or lease expiry.
func (i *Instance) Rd(ctx context.Context, p tuple.Template, r lease.Requester) (Result, error) {
	return matched(i.logicalOp(ctx, "", wire.OpRd, p, r))
}

// In takes a tuple matching p from the logical space, blocking until a
// match or lease expiry.
func (i *Instance) In(ctx context.Context, p tuple.Template, r lease.Requester) (Result, error) {
	return matched(i.logicalOp(ctx, "", wire.OpIn, p, r))
}

// matched is a blocking op's outcome: a lease that ended with no match
// is ErrNoMatch.
func matched(res Result, ok bool, err error) (Result, error) {
	if err == nil && !ok {
		err = ErrNoMatch
	}
	return res, err
}

// Rdp reads a matching tuple from the logical space without blocking for
// new tuples: the local space and currently visible instances are probed
// once under the lease budget.
func (i *Instance) Rdp(ctx context.Context, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.logicalOp(ctx, "", wire.OpRdp, p, r)
}

// Inp takes a matching tuple from the logical space without blocking.
func (i *Instance) Inp(ctx context.Context, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.logicalOp(ctx, "", wire.OpInp, p, r)
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

// opCounter is the handle that counts operations of code.
func (c *counters) opCounter(code wire.OpCode) *trace.Counter {
	switch code {
	case wire.OpRd:
		return c.opsRd
	case wire.OpRdp:
		return c.opsRdp
	case wire.OpIn:
		return c.opsIn
	default:
		return c.opsInp
	}
}

// logicalOp runs a read/take. Its audience is to: "" is the opportunistic
// logical space — the local space first, then the visible instances under
// the lease budget (paper §2.2, §3.1.3); this instance's own address is
// the local space alone; any other address is that one remote space (a
// direct operation, §2.4).
func (i *Instance) logicalOp(ctx context.Context, to wire.Addr, code wire.OpCode, p tuple.Template, r lease.Requester) (Result, bool, error) {
	if i.stopping() {
		return Result{}, false, ErrClosed
	}
	i.ctr.opCounter(code).Inc()
	// The lease is negotiated before any work and minted only for a walk:
	// like a responder's immediate serve, a local hit holds no lease.
	offer, err := i.mgr.Negotiate(opKind(code), i.requester(r))
	if err != nil {
		return Result{}, false, err
	}

	// Local phase. A blocking op registers with the local space, its state
	// the sink, and the registration stays in place through the walk, so a
	// local out meanwhile still satisfies the operation.
	var st *opState
	res, ok := Result{From: i.Addr()}, false
	if to == "" || to == i.Addr() {
		if code.Blocking() {
			if st, err = i.openOp(); err != nil {
				return Result{}, false, err
			}
			defer i.closeOp(st)
			kind := space.Read
			if st.take = code.Removes(); st.take {
				kind = space.Take
			}
			st.local = i.local.Park(p, kind, st)
			select {
			case m := <-st.found:
				res.Tuple, ok, st.local = m.t, m.ok, nil
			default:
			}
		} else if code.Removes() {
			res.Tuple, ok = i.local.Inp(p)
		} else {
			res.Tuple, ok = i.local.Rdp(p)
		}
	}
	// The walk below never contacts this node itself, so a requester that
	// is the last surviving holder of a replica copy must serve it
	// locally. Reads take any live copy; destructive takes pass the same
	// supersede proof as a remote failover (internal/replica).
	if !ok && to == "" && i.rs != nil {
		res.Tuple, ok = i.rs.ServeLocal(code.Removes(), p, i.clk.Now())
	}
	if ok {
		i.ctr.opsLocalHit.Inc()
		i.ctr.opsSatisfied.Inc()
		return res, true, nil
	}

	var f *opFrames
	var spare *pendingAccept
	if code.Removes() {
		tf := new(takeFrames)
		f, spare = &tf.opFrames, &tf.accept
	} else {
		f = new(opFrames)
	}
	now := i.clk.Now() // the walk's start event: its lease, first frame and contacts
	if err := i.mgr.GrantOffer(&f.lse, opKind(code), offer, now); err != nil {
		// Refused. A match committed to the local registration is the op's.
		if st != nil {
			if m := st.dropLocal(); m.ok {
				i.ctr.opsLocalHit.Inc()
				i.ctr.opsSatisfied.Inc()
				return Result{Tuple: m.t, From: i.Addr()}, true, nil
			}
		}
		return Result{}, false, err
	}
	defer f.lse.Cancel()
	// Destructive takes walking a replicated cluster's responder list
	// carry the Failover flag on every unicast contact: a responder holding
	// only a replica copy may then serve it — provided it can prove every
	// higher-ranked holder dead (internal/replica), so an alive primary
	// always keeps its takes. The flag stays off multicasts (see multicast).
	f.op = wire.Message{Type: wire.TOp, From: i.Addr(), Op: code, Template: p,
		Failover: to == "" && code.Removes() && i.rs != nil}
	res, ok, err = i.walk(ctx, now, &f.lse, &f.op, spare, to, st)
	if err != nil {
		return Result{}, false, err
	}
	if ok {
		i.ctr.opsSatisfied.Inc()
	} else {
		i.ctr.opsEmpty.Inc()
	}
	return res, ok, nil
}

// opFrames is an outbound walk's one object (DESIGN.md §7): its lease,
// never copied, and first frame; a take's holds its accept record too.
type opFrames struct {
	lse lease.Lease
	op  wire.Message
}

type takeFrames struct {
	opFrames
	accept pendingAccept
}

// walk runs one outbound operation to its end (type walk): now is the
// reading its lease was granted at, which its start reuses; m is its first
// frame, stamped here with op ID, TTL and budget; spare is a take's accept
// record, or nil. st is the op's state when the caller opened it to
// register locally — a local match then ends the walk — and nil otherwise.
// An rpc's ack reads as a found result.
func (i *Instance) walk(ctx context.Context, now time.Time, lse *lease.Lease, m *wire.Message, spare *pendingAccept, to wire.Addr, st *opState) (Result, bool, error) {
	if st == nil {
		var err error
		if st, err = i.openOp(); err != nil {
			return Result{}, false, err
		}
		defer i.closeOp(st)
	}
	m.ID = st.id
	m.TTL = lse.Deadline().Sub(now)
	stampBudget(ctx, m)
	st.walk = walk{ctx: ctx, lse: lse, msg: m, spare: spare, to: to, local: st.local, now: now}
	// A tick the state's previous op left (its lease ends after its walk,
	// LeaseEnded) says nothing to this one.
	select {
	case <-st.tick:
	default:
	}
	lse.OnEnd(st)
	if err := st.start(); err != nil {
		return Result{}, false, err
	}
	for !st.over {
		select {
		case m := <-st.found:
			st.onLocal(m)
		case r := <-st.results:
			st.now = i.clk.Now()
			st.onReply(r)
		case <-st.tick:
			st.now = i.clk.Now()
			st.onTick()
		case a := <-st.joins:
			st.now = i.clk.Now()
			st.onJoin(a)
		case <-ctx.Done():
			st.err, st.over = ctx.Err(), true
		}
	}
	// The lease or the context may have ended it just as the local space
	// committed a match it has not read: the space has let that tuple go,
	// so it is the op's result.
	if m := st.dropLocal(); m.ok {
		st.onLocal(m)
		st.err = nil
	}
	return st.res, st.ok, st.err
}

// start makes the walk's first contacts.
func (st *opState) start() error {
	i, code := st.i, st.msg.Op
	if st.to != "" {
		// A fixed address is the walk's one contact; a frame that cannot
		// leave ends the op with the error. This instance's own address
		// needs none: the local phase was the search.
		if st.to != i.Addr() {
			st.queueBuf = append(st.queueBuf[:0], st.to)
			st.queue = st.queueBuf
			if err := st.contactNext(1, false); err != nil {
				return err
			}
		}
	} else {
		// The responder list is contacted top-down, ContactFanout at a time
		// (paper §3.1.3: "operation propagation always starts from the
		// top"). Nonblocking ops advance on not-found replies, blocking ops
		// on a hedge cadence — so a healthy top contact costs one message
		// and a slow one bounded extra latency, never an unbounded stall.
		if !i.cfg.DisableResponderCache {
			st.queueBuf = i.list.SnapshotAt(st.queueBuf[:0], st.now)
			if st.msg.Failover {
				// Make sure the walk reaches the ring-placed replica holders
				// for this template's key.
				st.queueBuf = i.rs.AppendHolders(st.queueBuf, st.msg.Template)
			}
			st.queue = st.queueBuf
		}
		st.hedging = code.Blocking() && !i.cfg.DisableHedge
		st.contactNext(i.cfg.ContactFanout, false)
		st.armHedge()
		if st.remaining == 0 || i.cfg.DisableResponderCache {
			st.multicast()
		}
		if code.Blocking() && i.cfg.ContinuousDiscovery {
			st.rediscoverAt = st.now.Add(i.cfg.RediscoverInterval)
		}
		// Blocking ops subscribe to the responder list's joins so a peer
		// that walks into range mid-wait is contacted immediately (the
		// paper's §2 premise: the logical space is the union of
		// *currently* visible nodes, not the set visible at op start).
		if code.Blocking() {
			if st.sub == nil {
				st.sub = discovery.NewSubscription()
			}
			i.list.Attach(st.sub)
			st.joins = st.sub.Joins()
		}
	}
	st.arm()
	// A nonblocking op with nobody to wait for is over.
	st.over = st.remaining == 0 && !st.unknownAudience && !code.Blocking()
	return nil
}

// onLocal ends the walk on a match in the local space; a withdrawn Take
// ends only the registration, and the walk goes on.
func (st *opState) onLocal(m localMatch) {
	st.local = nil
	if !m.ok {
		return
	}
	st.i.ctr.opsLocalHit.Inc()
	st.res, st.ok, st.over = Result{Tuple: m.t, From: st.i.Addr()}, true, true
}

// onReply handles one reply. A found result or an rpc's ack ends the op;
// any other answer closes its contact and lets the walk move on.
func (st *opState) onReply(m *wire.Message) {
	i, code := st.i, st.msg.Op
	st.remaining--
	cs := st.contacted[m.From]
	if cs != nil && !cs.done {
		cs.done = true
		// Feed the health layer: busy refusals and a blocking op's
		// not-found (a serve-lease expiry notice) carry no timing signal;
		// everything else does.
		i.noteReply(m.From, cs.attempts, st.now.Sub(cs.sentAt), !m.Busy && (m.Found || !code.Blocking()))
	}
	if m.Busy && st.hedging {
		// The neighbourhood is shedding load; hedging would add contacts
		// exactly when peers want fewer. Stop the hedge cadence for this op
		// — the retry-exhaustion walk still guarantees the rest of the
		// list is reached.
		st.hedging = false
		st.armHedge()
		i.ctr.hedgeSuppressed.Inc()
	}
	if m.Type == wire.TResult {
		if slices.Contains(st.replied, m.From) {
			i.ctr.dedupDrops.Inc()
		} else {
			st.replied = append(st.replied, m.From)
			if !m.Busy && !code.Blocking() {
				st.skip = append(st.skip, m.From)
			}
		}
	}
	switch {
	case m.Found:
		if cs != nil && cs.hedged {
			i.ctr.hedgeWins.Inc()
		}
		if code.Removes() && m.HoldID != 0 {
			if st.local != nil && !st.local.Cancel() {
				// The local space committed a match to this take first: it
				// wins, read next, and the remote hold goes back.
				i.releaseLate(m)
				return
			}
			// First responder wins: accept this hold; closeOp's drain
			// releases any later ones.
			i.acceptHold(m.From, m.HoldID, st.lse, st.spare, st.now)
			if i.rs != nil {
				// A reply carrying a replica identity means other holders
				// keep copies of this tuple: tell them it is consumed.
				i.rs.Consumed(m, st.now)
			}
		}
		// The finder gains in its share of finds (handleResult), judged at
		// this wake-up's reading.
		i.list.PromoteAt(m.From, st.now)
		i.ctr.opsRemoteHit.Inc()
		st.winner = m.From
		st.res, st.ok, st.over = Result{Tuple: m.Tuple, From: m.From}, true, true
	case m.Type == wire.TAck && st.msg.Type != wire.TOp:
		st.ok, st.over = true, true
		if !m.OK {
			st.err = fmt.Errorf("%s: %s: %w", m.From, m.Err, ErrRemoteRefused)
		}
	default:
		st.arm() // one contact fewer to wait on, perhaps no hedge
		st.advance()
		st.over = st.concluded()
	}
}

// onTick handles the state's deadline: whatever of the hedge, the
// rediscovery and the contacts' reply waits is due (see Expire).
func (st *opState) onTick() {
	i, code := st.i, st.msg.Op
	if st.lse.Err() != nil {
		// Lease ended: stop trying and return nothing (§2.5).
		i.ctr.opsExpired.Inc()
		st.over = true
		return
	}
	now := st.now
	if !st.hedgeAt.IsZero() && !now.Before(st.hedgeAt) {
		// No answer within the adaptive hedge delay (DESIGN.md §11): race
		// the next ranked responder with the same op ID. The serve side's
		// dedup and accept/release settlement make a hedged take
		// effectively-once. Once the hedge budget is spent, the next firing
		// contacts everyone left — the staged walk bounds added tail
		// latency, never completeness.
		if st.hedgesUsed >= hedgeMax {
			st.contactNext(len(st.queue), false)
		} else {
			st.hedgesUsed++
			i.ctr.hedges.Inc()
			st.contactNext(1, true)
		}
		st.armHedge()
	}
	if !st.rediscoverAt.IsZero() && !now.Before(st.rediscoverAt) {
		// The model's continuous mode: instances that became visible
		// during the operation are included (§2.2).
		st.restamp()
		st.multicast()
		st.rediscoverAt = now.Add(i.cfg.RediscoverInterval)
	}
	// The local replica store may have become servable since the pre-walk
	// attempt: a higher-ranked holder died mid-walk, or the failover grace
	// armed then has now elapsed. Re-try it on each contact timeout — the
	// walk never contacts this node itself.
	serveLocal := st.to == "" && i.rs != nil
	for a, cs := range st.contacted {
		if cs.done || now.Before(cs.deadline) {
			continue
		}
		if serveLocal {
			if t, ok := i.rs.ServeLocal(code.Removes(), st.msg.Template, now); ok {
				i.ctr.opsLocalHit.Inc()
				st.res, st.ok, st.over = Result{Tuple: t, From: i.Addr()}, true, true
				return
			}
			serveLocal = false
		}
		i.ctr.contactTimeouts.Inc()
		if cs.attempts >= i.cfg.RetryAttempts {
			// Out of retries. Silence from a nonblocking probe is a soft
			// failure; a blocking responder is expected to stay silent
			// until it has a match, so no blame there.
			cs.done = true
			st.remaining--
			if !code.Blocking() {
				i.list.Fail(a)
			}
			continue
		}
		if st.lse.ConsumeRemote() != nil {
			cs.done = true // lease budget exhausted: stop trying
			st.remaining--
			continue
		}
		cs.attempts++
		st.restamp()
		_ = i.send(a, st.msg)
		i.ctr.retries.Inc()
		cs.deadline = now.Add(i.retryWait(cs.attempts))
	}
	st.advance()
	st.arm()
	st.over = st.concluded()
}

// onJoin re-arms a blocking walk toward a peer that became visible
// (DESIGN.md §10), with the same op ID — the serve side's record of each
// request makes a duplicate contact harmless, so this is
// safe even when the newcomer already heard a multicast of this op.
// Skips: ourselves, peers that already answered this op, and peers with a
// contact still in flight. A peer we gave up on re-qualifies — its
// reappearance is exactly the news we were missing.
func (st *opState) onJoin(a wire.Addr) {
	i := st.i
	if a == i.Addr() || slices.Contains(st.replied, a) {
		return
	}
	if cs := st.contacted[a]; cs != nil && !cs.done {
		return
	}
	if st.lse.ConsumeRemote() != nil {
		return // remote budget exhausted: the lease bounds re-arms too
	}
	st.restamp()
	if i.send(a, st.msg) != nil {
		return
	}
	st.record(a, false)
	i.ctr.rearms.Inc()
	st.arm()
}

// contactNext sends the walk's frame to the next limit responders in the
// queue not contacted yet, each under one unit of the lease's remote
// budget, and returns the last error met; an exhausted budget empties the
// queue.
func (st *opState) contactNext(limit int, hedged bool) (err error) {
	for limit > 0 && len(st.queue) > 0 {
		a := st.queue[0]
		st.queue = st.queue[1:]
		if st.contacted[a] != nil {
			continue
		}
		if err = st.lse.ConsumeRemote(); err != nil {
			st.queue = nil
			return err
		}
		if err = st.i.send(a, st.msg); err == nil {
			st.record(a, hedged)
			limit--
		}
	}
	return err
}

// record opens (or reopens) a contact with a, just sent the frame: one
// more reply expected, with a retry budget and reply deadline of its own,
// both from the event's reading, taken before the send.
func (st *opState) record(a wire.Addr, hedged bool) {
	now := st.now
	cs := st.contacted[a]
	if cs == nil {
		cs = st.newContact()
		st.contacted[a] = cs
	}
	*cs = contactState{attempts: 1, sentAt: now, hedged: hedged, deadline: now.Add(st.i.retryWait(1))}
	st.remaining++
}

// restamp replaces the walk's frame with a fresh copy stamped with the
// time left; the frame already handed to the transport is never written.
func (st *opState) restamp() {
	m := *st.msg
	m.TTL = st.lse.Deadline().Sub(st.now)
	stampBudget(st.ctx, &m)
	st.msg = &m
}

// armHedge sets the next hedge firing, if hedging and anyone is left.
func (st *opState) armHedge() {
	st.hedgeAt = time.Time{}
	if st.hedging && len(st.queue) > 0 {
		st.hedgeAt = st.now.Add(st.i.hedgeDelay())
	}
}

// arm schedules the state's one deadline entry for whichever comes first:
// the moment the earliest outstanding contact has waited long enough for a
// retransmission (or a give-up), no sooner than a millisecond from now;
// the next hedge; the next rediscovery. With none pending it is cancelled.
func (st *opState) arm() {
	var next time.Time
	for _, cs := range st.contacted {
		if !cs.done && (next.IsZero() || cs.deadline.Before(next)) {
			next = cs.deadline
		}
	}
	if !next.IsZero() {
		if floor := st.now.Add(time.Millisecond); next.Before(floor) {
			next = floor
		}
	}
	if next = earlier(earlier(next, st.hedgeAt), st.rediscoverAt); next.IsZero() {
		st.i.deadlines.Cancel(st)
		return
	}
	st.i.deadlines.Schedule(st, next)
}

// earlier returns the earlier of two instants, a zero one meaning none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// advance keeps a blocking walk moving whenever every contact so far has
// answered (busy, not-found) or exhausted its retries and list entries
// remain: the completeness guarantee when hedging is off, suppressed, or
// spent.
func (st *opState) advance() {
	if !st.msg.Op.Blocking() || len(st.queue) == 0 {
		return
	}
	for _, cs := range st.contacted {
		if !cs.done {
			return
		}
	}
	st.contactNext(st.i.cfg.ContactFanout, false)
	st.arm()
}

// concluded decides whether a nonblocking walk is over: advance down the
// queue before resorting to a multicast (paper §3.1.3: "if the end of the
// list is reached, and the request is not satisfied, then another
// multicast may be used"), then conclude once nobody is left to answer.
// A fixed audience has no multicast: its walk is over when its contact is.
func (st *opState) concluded() bool {
	if st.msg.Op.Blocking() || st.remaining > 0 {
		return false
	}
	if len(st.queue) > 0 {
		st.contactNext(st.i.cfg.ContactFanout, false)
		st.arm()
		if st.remaining > 0 {
			return false
		}
	}
	if st.unknownAudience {
		return false
	}
	if st.to == "" && !st.multicasted {
		st.multicast()
		if st.remaining > 0 || st.unknownAudience {
			return false
		}
	}
	return true
}

// multicast sends the walk's frame to every listener in range that st.skip
// does not name, once — or each time asked, under ContinuousDiscovery — under
// one unit of the remote budget. Every recipient counted is a reply expected.
func (st *opState) multicast() {
	i := st.i
	if st.multicasted && !i.cfg.ContinuousDiscovery {
		return
	}
	if st.lse.ConsumeRemote() != nil {
		return
	}
	// A multicast is how the walk finds responders it does not know: it
	// skips those with an answer to replay (DESIGN.md §6) and carries no
	// failover marker, which is for ranked holders the walk does know
	// (§13). The multicast form is a copy; msg stays as unicast uses it.
	mc := st.msg
	if mc.Failover || len(st.skip) > 0 {
		st.mcast = *mc
		st.mcast.Failover = false
		st.mcast.Skip = st.skip
		mc = &st.mcast
	}
	n, err := i.ep.Multicast(mc)
	if err == nil {
		if n < 0 {
			st.unknownAudience = true
		} else {
			st.remaining += n
		}
		st.multicasted = true
		i.ctr.discoverRounds.Inc()
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
	msg     wire.Message // msg.ID is the ack ID the accept is registered under
	giveUp  time.Time    // past the owner's grace window the accept is moot
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
// armed for it. pa is the record to fill: the take's own (takeFrames).
// now is the reading of the reply event that won the hold.
func (i *Instance) acceptHold(owner wire.Addr, holdID uint64, lse *lease.Lease, pa *pendingAccept, now time.Time) {
	budget := lse.Deadline().Sub(now) + i.tm.holdGrace
	if budget < i.tm.holdGrace {
		budget = i.tm.holdGrace
	}
	giveUp := now.Add(budget)

	ackID := i.nextOp()
	*pa = pendingAccept{i: i, owner: owner, giveUp: giveUp, attempt: 1,
		msg: wire.Message{Type: wire.TAccept, ID: ackID, From: i.Addr(), HoldID: holdID}}
	// Register before sending: over a synchronous transport the ack can
	// arrive before send returns, and an ack that finds nothing registered
	// settles nothing — the accept would be retransmitted for no reason.
	i.mu.Lock()
	if i.closed.Load() {
		i.mu.Unlock()
		return
	}
	i.pendAccepts[ackID] = pa
	i.mu.Unlock()
	if i.send(owner, &pa.msg) != nil {
		i.finishAccept(ackID) // owner unreachable: its grace deadline takes over
		return
	}
	i.scheduleAcceptRetry(pa, 1, now)
}

// scheduleAcceptRetry schedules pa's next TAccept retransmission, timed
// from now, the reading of the event that sent this one, unless the ack
// (or teardown) already settled it.
func (i *Instance) scheduleAcceptRetry(pa *pendingAccept, attempt int, now time.Time) {
	at := now.Add(i.retryWait(attempt))
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
	now := i.clk.Now()
	if i.closed.Load() || !now.Before(pa.giveUp) {
		// Past the owner's grace window (or closing): the accept is moot.
		delete(i.pendAccepts, ackID)
		i.retiredLocked()
		i.mu.Unlock()
		return
	}
	pa.attempt++
	attempt := pa.attempt
	i.mu.Unlock()
	if i.send(pa.owner, &pa.msg) != nil {
		i.mu.Lock()
		delete(i.pendAccepts, ackID)
		i.retiredLocked()
		i.mu.Unlock()
		return // owner unreachable: its grace deadline takes over
	}
	i.ctr.retries.Inc()
	i.ctr.acceptRetransmits.Inc()
	i.scheduleAcceptRetry(pa, attempt, now)
}

// finishAccept settles the pending accept named by an inbound ack ID.
// It reports whether the ID belonged to one.
func (i *Instance) finishAccept(id uint64) bool {
	i.mu.Lock()
	pa, ok := i.pendAccepts[id]
	if ok {
		delete(i.pendAccepts, id)
		i.retiredLocked()
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
		_, _ = i.ep.Multicast(cancel)
	}
}

// releaseLate handles a found result no walk reads: one that lost the
// race or arrived after completion. Its finder is promoted all the same,
// on a reading of its own, and its hold is released, reinstating the
// tuple at its owner. A duplicate of a winning reply whose accept is
// still pending is dropped instead: its release could overtake the
// accept and reinstate a taken tuple. Once the owner has acked the accept
// the release is harmless, since the owner acks only after it settled the
// hold, so it finds nothing to release (DESIGN.md §6).
func (i *Instance) releaseLate(m *wire.Message) {
	if m.Type != wire.TResult || !m.Found {
		return
	}
	i.list.Promote(m.From)
	if m.HoldID == 0 || i.isClosed() {
		return
	}
	pending := false
	i.mu.Lock()
	for _, pa := range i.pendAccepts {
		if pa.owner == m.From && pa.msg.HoldID == m.HoldID {
			pending = true
			break
		}
	}
	i.mu.Unlock()
	if pending {
		i.ctr.dedupDrops.Inc()
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
		i.ctr.busyReceived.Inc()
	}
	if m.Type == wire.TResult && !m.Found {
		// Every responder is worth remembering, including late ones and
		// losers of the first-responder race (paper §3.1.3: instances
		// responding to the multicast are appended to the list). One that
		// actually had the tuple gains in its share of finds, by which the
		// list is ranked, so the next operation starts where operations
		// have lately been satisfied: its walk promotes it (onReply), or
		// releaseLate when no walk reads the reply.
		i.list.Observe(m.From)
	}
	// A pure ack may settle a pending accept directly, and a replicate's
	// settles its flight the same way: neither reaches an operation
	// channel.
	if m.Type == wire.TAck && (i.finishAccept(m.ID) || i.copyFrame(m, time.Time{})) {
		return
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
	n, err := i.ep.Multicast(&wire.Message{Type: wire.TDiscover, ID: id, From: i.Addr()})
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
	return i.rpc(addr, lease.OpOut, i.ctr.opsOut, wire.Message{Type: wire.TOut, From: i.Addr(), Tuple: t}, r)
}

// EvalAt performs an eval on the specific remote space addr. The function
// name must be registered there.
func (i *Instance) EvalAt(addr wire.Addr, fn string, args tuple.Tuple, r lease.Requester) error {
	if addr == i.Addr() {
		return i.Eval(fn, args, r)
	}
	return i.rpc(addr, lease.OpEval, i.ctr.opsEval, wire.Message{Type: wire.TEval, From: i.Addr(), Func: fn, Tuple: args}, r)
}

// rpc walks m, a TOut or TEval, to addr under a lease of the given kind,
// the two made as one object (opFrames), and reports its TAck: nil, or
// the remote's refusal as ErrRemoteRefused. A frame that cannot leave
// returns the send error, and an addr silent through every
// retransmission, or until the lease ends, an error saying so.
func (i *Instance) rpc(addr wire.Addr, kind lease.OpKind, counter *trace.Counter, m wire.Message, r lease.Requester) error {
	if i.stopping() {
		return ErrClosed
	}
	counter.Inc()
	offer, err := i.mgr.Negotiate(kind, i.requester(r))
	if err != nil {
		return err
	}
	f := &opFrames{op: m}
	now := i.clk.Now()
	if err := i.mgr.GrantOffer(&f.lse, kind, offer, now); err != nil {
		return err
	}
	defer f.lse.Cancel()
	_, acked, err := i.walk(context.TODO(), now, &f.lse, &f.op, nil, addr, nil)
	switch {
	case err != nil || acked:
		return err
	case i.isClosed():
		return ErrClosed
	case f.lse.Err() != nil:
		return fmt.Errorf("%s: no ack within lease: %w", addr, f.lse.Err())
	}
	return fmt.Errorf("%s: no ack to %d transmissions", addr, i.cfg.RetryAttempts)
}

// RdAt reads from the specific space addr, blocking until match or lease
// expiry.
func (i *Instance) RdAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, error) {
	return matched(i.logicalOp(ctx, addr, wire.OpRd, p, r))
}

// InAt takes from the specific space addr, blocking until match or lease
// expiry.
func (i *Instance) InAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, error) {
	return matched(i.logicalOp(ctx, addr, wire.OpIn, p, r))
}

// RdpAt probes the specific space addr without blocking.
func (i *Instance) RdpAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.logicalOp(ctx, addr, wire.OpRdp, p, r)
}

// InpAt takes from the specific space addr without blocking.
func (i *Instance) InpAt(ctx context.Context, addr wire.Addr, p tuple.Template, r lease.Requester) (Result, bool, error) {
	return i.logicalOp(ctx, addr, wire.OpInp, p, r)
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
