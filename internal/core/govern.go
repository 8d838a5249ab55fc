package core

import (
	"fmt"
	"sync"
	"time"

	"tiamat/lease"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/wire"
)

// This file implements the serve-path resource governor: the admission
// layer that puts the lease manager in charge of remote-originated work
// (DESIGN.md §9). Inbound rd/rdp/in/inp/out/eval frames pass
// priority-aware load shedding — probes are shed before blocking waits,
// waits before outs — per-peer fairness quotas, and watermark-driven
// escalation that mirrors the paper's ladder (§2.5): shrink outstanding
// grants first, then stop admitting, and only as a last resort revoke.
// Every shed is an explicit busy reply on the wire, never silence, so
// requesters fail over instead of retrying into an overloaded node. The
// local space decides where an admitted frame is served: on the receive
// loop when it declares it never blocks (space.NonBlocking), otherwise
// through a bounded work queue to the worker pool.

// GovernorConfig tunes the serve-path governor. Zero values select the
// documented defaults; the zero struct is a working workstation-class
// configuration.
type GovernorConfig struct {
	// MaxPeerWaits bounds the blocking remote waits registered on behalf
	// of any single peer (default 128).
	MaxPeerWaits int
	// MaxTotalWaits bounds the remote wait table across all peers
	// (default 4096) — the table was unbounded before the governor.
	MaxTotalWaits int
	// ShedWatermark is the pressure (0..1] at which the governor starts
	// clamping newly negotiated grants and shedding probe ops. Blocking
	// waits shed one third of the way from the watermark to saturation,
	// outs two thirds (default 0.75).
	ShedWatermark float64
	// RevokeCooldown rate-limits revocation waves (default 1s).
	RevokeCooldown time.Duration
}

// The governor's fixed settings: one value each is in use, so none is a
// GovernorConfig field.
const (
	// maxPeerInflight bounds concurrently queued+executing ops per peer.
	maxPeerInflight = 256
	// maxPeerBytes bounds the payload bytes of queued+executing work per
	// peer.
	maxPeerBytes = 4 << 20
	// serveWorkers is the serve worker pool size, and serveQueueDepth
	// bounds the queue it drains. Only a space that may block has either.
	serveWorkers    = 4
	serveQueueDepth = 1024
	// revokeWatermark is the pressure at which revocation is armed, after
	// shrinking has nothing left to reclaim.
	revokeWatermark = 0.97
	// shrinkInterval rate-limits shrink sweeps over the active lease set.
	shrinkInterval = 100 * time.Millisecond
	// degradeQueueDelay is the smoothed serve-queue wait at which the node
	// reports itself degraded on announce frames (DESIGN.md §11): admitted
	// work lingering this long behind the worker pool means the node is
	// serving, but slowly — a gray failure peers should route around
	// rather than discover one timeout at a time.
	degradeQueueDelay = 250 * time.Millisecond
	// degradeDecay is how long the degraded self-report outlives the last
	// over-threshold queue-delay reading; mirrors the WAL stall watchdog's
	// decay so a recovered node stops advertising trouble promptly.
	degradeDecay = 2 * time.Second
)

func (c *GovernorConfig) applyDefaults() {
	if c.MaxPeerWaits <= 0 {
		c.MaxPeerWaits = 128
	}
	if c.MaxTotalWaits <= 0 {
		c.MaxTotalWaits = 4096
	}
	if c.ShedWatermark <= 0 || c.ShedWatermark > 1 {
		c.ShedWatermark = 0.75
	}
	if c.RevokeCooldown <= 0 {
		c.RevokeCooldown = time.Second
	}
}

// GovernorReport is a snapshot of governor activity, logged by tiamatd
// on drain and inspected by experiments: a view over the node's registry
// (Instance.Metrics) plus the live queue-delay reading.
type GovernorReport struct {
	ShedProbes   uint64 // probe (rdp/inp) ops refused busy
	ShedWaits    uint64 // blocking (rd/in) ops refused busy
	ShedOuts     uint64 // remote out/eval refused busy
	QuotaSheds   uint64 // refusals due to per-peer fairness quotas
	QueueSheds   uint64 // refusals due to a saturated work queue
	Shrinks      uint64 // shrink sweeps that reclaimed budget
	ShrunkBytes  int64  // bytes reclaimed by shrink sweeps
	Revokes      uint64 // leases revoked (last resort)
	GrantClamps  uint64 // serve leases (parked waits, outs, evals) narrowed under pressure
	DeadlineCuts uint64 // serve budgets cut to the requester's budget
	// Queued counts serve frames queued for the worker pool, QueueSheds
	// among them. Only a space that may block has a pool: on a
	// space.NonBlocking space every admitted frame is served on the
	// receive loop and Queued stays 0.
	Queued uint64

	// QueueDelay is the smoothed time admitted work waits in the serve
	// queue before a worker picks it up — the gray-failure probe's input.
	// A node without a pool has no queue, and it reads zero.
	QueueDelay time.Duration
}

// Sheds is the total of all shed classes.
func (r GovernorReport) Sheds() uint64 {
	return r.ShedProbes + r.ShedWaits + r.ShedOuts + r.QuotaSheds + r.QueueSheds
}

// peerState is the governor's fairness accounting for one peer.
type peerState struct {
	waits    int   // registered blocking waits served for this peer
	inflight int   // ops queued or executing for this peer
	bytes    int64 // payload bytes of queued+executing work
}

func (p peerState) idle() bool { return p.waits == 0 && p.inflight == 0 && p.bytes == 0 }

// setPeerLocked writes a peer's accounting back, dropping the record the
// moment the peer is idle. Both maps below hold values, not pointers:
// every closed-loop op takes its peer from idle to busy and back, and a
// pointer map allocated a record each time. Caller holds g.mu.
func (g *governor) setPeerLocked(peer wire.Addr, ps peerState) {
	if ps.idle() {
		delete(g.peers, peer)
		return
	}
	g.peers[peer] = ps
}

// queuedMsg timestamps a frame at admission so the worker that dequeues
// it can measure how long it lingered — the queue-delay probe's raw
// signal.
type queuedMsg struct {
	m  *wire.Message
	at time.Time
}

type governor struct {
	cfg GovernorConfig
	i   *Instance
	// queue feeds the worker pool. It is nil when the local space declares
	// it never blocks (space.NonBlocking): every admitted frame is then
	// served on the receive loop, and New starts no worker.
	queue chan queuedMsg

	mu            sync.Mutex
	peers         map[wire.Addr]peerState
	totalWaits    int
	lastRevoke    time.Time
	lastShrink    time.Time
	queueDelay    time.Duration // EWMA of serve-queue wait
	degradedUntil time.Time     // self-report active until this instant
}

func newGovernor(i *Instance, cfg GovernorConfig) *governor {
	cfg.applyDefaults()
	g := &governor{
		cfg:   cfg,
		i:     i,
		peers: make(map[wire.Addr]peerState),
		// The revoke cooldown starts at boot: a node that comes up
		// already saturated must still climb the ladder (shed, shrink)
		// before its first revocation.
		lastRevoke: i.clk.Now(),
	}
	if nb, ok := i.local.(space.NonBlocking); !ok || !nb.NeverBlocks() {
		g.queue = make(chan queuedMsg, serveQueueDepth)
	}
	return g
}

// Report reads the governor's activity off the node's counters.
func (g *governor) Report() GovernorReport {
	i := g.i
	g.mu.Lock()
	queueDelay := g.queueDelay
	g.mu.Unlock()
	return GovernorReport{
		ShedProbes:   i.counted(trace.CtrGovShedProbes),
		ShedWaits:    i.counted(trace.CtrGovShedWaits),
		ShedOuts:     i.counted(trace.CtrGovShedOuts),
		QuotaSheds:   i.counted(trace.CtrGovQuotaSheds),
		QueueSheds:   i.counted(trace.CtrGovQueueSheds),
		Shrinks:      i.counted(trace.CtrGovShrinks),
		ShrunkBytes:  i.met.Get(trace.CtrGovShrunkBytes),
		Revokes:      i.counted(trace.CtrGovRevokes),
		GrantClamps:  i.counted(trace.CtrGovClamps),
		DeadlineCuts: i.counted(trace.CtrGovDeadlineCuts),
		Queued:       i.counted(trace.CtrGovQueued),
		QueueDelay:   queueDelay,
	}
}

// noteQueueDelay feeds one dequeue's wait into the smoothed queue-delay
// probe (gain 1/8, RFC 6298-shaped like the discovery EWMA). When the
// smoothed wait reaches degradeQueueDelay the node starts self-reporting
// degraded on announce frames, and keeps doing so until the signal has
// stayed below threshold for degradeDecay — admitted-but-slow service is
// exactly the gray failure peers cannot see from refusals alone.
func (g *governor) noteQueueDelay(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.queueDelay += (d - g.queueDelay) / 8
	if g.queueDelay >= degradeQueueDelay {
		g.degradedUntil = g.i.clk.Now().Add(degradeDecay)
		g.i.met.Inc(trace.CtrGovQueueStalls)
	}
}

// degraded reports whether the queue-delay probe currently flags this
// node as serving slowly.
func (g *governor) degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.degradedUntil.IsZero() && g.i.clk.Now().Before(g.degradedUntil)
}

// pressure derives the node's load in [0,1] from live lease-manager
// stats, the serve queue, and the remote wait table: the binding
// constraint wins. At the shed watermark grants start shrinking; at 1.0
// the node is saturated on some axis.
func (g *governor) pressure() float64 {
	st := g.i.mgr.Stats()
	capy := g.i.mgr.Capacity()
	p := frac(st.Active, capy.MaxActive)
	p = maxf(p, frac64(st.BytesHeld, capy.MaxTotalBytes))
	p = maxf(p, frac(len(g.queue), serveQueueDepth))
	g.mu.Lock()
	tw := g.totalWaits
	g.mu.Unlock()
	return maxf(p, frac(tw, g.cfg.MaxTotalWaits))
}

func frac(n, d int) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func frac64(n, d int64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// shedThreshold returns the pressure at which the message's class is
// refused. The shedding order is the paper's effort ordering: answering
// a probe costs this node nothing it promised anyone; a blocking wait
// ties down table space and a future reply; an out/eval stores bytes —
// so probes go first and stored work is protected longest.
func (g *governor) shedThreshold(m *wire.Message) float64 {
	w := g.cfg.ShedWatermark
	step := (1 - w) / 3
	switch m.Type {
	case wire.TOp:
		if m.Op.Blocking() {
			return w + step
		}
		return w
	default: // TOut, TEval
		return w + 2*step
	}
}

func shedCounter(m *wire.Message) string {
	switch m.Type {
	case wire.TOp:
		if m.Op.Blocking() {
			return trace.CtrGovShedWaits
		}
		return trace.CtrGovShedProbes
	default:
		return trace.CtrGovShedOuts
	}
}

// refuse sends the explicit busy reply for a shed message: a Busy
// not-found for ops, a Busy refusal ack for out/eval. Silence is never
// an answer — the requester must know to fail over rather than burn its
// retry budget here (DESIGN.md §9).
func (g *governor) refuse(m *wire.Message) {
	switch m.Type {
	case wire.TOp:
		_ = g.i.send(m.From, &wire.Message{
			Type: wire.TResult, ID: m.ID, From: g.i.Addr(), Found: false, Busy: true,
		})
	default: // TOut, TEval
		_ = g.i.send(m.From, &wire.Message{
			Type: wire.TAck, ID: m.ID, From: g.i.Addr(), OK: false, Err: "busy: admission refused", Busy: true,
		})
	}
}

// msgCost is the byte footprint charged against the peer's quota while
// the message is queued or executing.
func msgCost(m *wire.Message) int64 {
	return m.Tuple.Size() + 64
}

// submit admits, sheds, or dedups one remote work frame. It runs on the
// receive loop: the outcome is an explicit busy reply, a duplicate
// decided by its request's record (admit: a replay, or silence that
// finish may answer), the serve itself, run right here when the space
// declared it never blocks, or an enqueue for the worker pool. A serve
// run here waits on nothing the loop itself must deliver: it reaches the
// lease manager, the space, the replica store's lock, startEval's spawn
// and sends, and none of them waits for a reply (DESIGN.md §9 lists what
// a send may wait on).
func (g *governor) submit(m *wire.Message) {
	cost := msgCost(m)

	// Escalation rungs 1 and 2 run off the same pressure reading: above
	// the shed watermark reclaim promised-but-unused budget (shrink);
	// above the class threshold stop admitting this class.
	p := g.pressure()
	if p >= g.cfg.ShedWatermark {
		g.maybeShrink()
	}
	if p >= g.shedThreshold(m) {
		g.i.met.Inc(shedCounter(m))
		g.refuse(m)
		g.maybeRevoke(p)
		return
	}

	if replay, execute := g.i.admit(m); !execute {
		g.i.met.Inc(trace.CtrDedupDrops)
		if replay != nil {
			_ = g.i.send(m.From, replay)
		}
		return
	}
	g.mu.Lock()
	ps := g.peers[m.From]
	if ps.inflight >= maxPeerInflight || ps.bytes+cost > maxPeerBytes {
		g.mu.Unlock()
		g.i.finishRun(waitKey{from: m.From, id: m.ID}) // never ran
		g.i.met.Inc(trace.CtrGovQuotaSheds)
		g.refuse(m)
		return
	}
	ps.inflight++
	ps.bytes += cost
	g.peers[m.From] = ps
	g.mu.Unlock()

	if g.queue == nil {
		g.serveOne(m)
		return
	}
	g.i.met.Inc(trace.CtrGovQueued)
	select {
	case g.queue <- queuedMsg{m: m, at: g.i.clk.Now()}:
	default:
		// The queue filled between the pressure reading and here.
		g.finish(m)
		g.i.met.Inc(trace.CtrGovQueueSheds)
		g.refuse(m)
	}
}

// finish retires a message's quota accounting once its handler returns
// (or it was never enqueued) and files its request (finishRun). A copy
// dropped while the handler ran is sent the recorded reply now, as it
// would have been a moment later: the requester may still count on this
// node (DESIGN.md §6). A standing blocking wait owes it nothing.
func (g *governor) finish(m *wire.Message) {
	cost := msgCost(m)
	g.mu.Lock()
	if ps, ok := g.peers[m.From]; ok {
		ps.inflight--
		ps.bytes -= cost
		g.setPeerLocked(m.From, ps)
	}
	g.mu.Unlock()
	if replay := g.i.finishRun(waitKey{from: m.From, id: m.ID}); replay != nil {
		_ = g.i.send(m.From, replay)
	}
}

// tryAddWait claims a slot in the remote wait table for the peer,
// enforcing both the per-peer fairness quota and the global bound. The
// caller must pair a success with dropWait.
func (g *governor) tryAddWait(peer wire.Addr) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.totalWaits >= g.cfg.MaxTotalWaits {
		g.i.met.Inc(trace.CtrGovQuotaSheds)
		return false
	}
	ps := g.peers[peer]
	if ps.waits >= g.cfg.MaxPeerWaits {
		g.i.met.Inc(trace.CtrGovQuotaSheds)
		return false
	}
	ps.waits++
	g.peers[peer] = ps
	g.totalWaits++
	return true
}

func (g *governor) dropWait(peer wire.Addr) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.totalWaits--
	if ps, ok := g.peers[peer]; ok {
		ps.waits--
		g.setPeerLocked(peer, ps)
	}
}

// clampTerms narrows a serve-side lease proposal under pressure: the
// first rung of the escalation ladder shrinks what is newly promised
// before anything already promised is touched. The clamp factor falls
// linearly from 1 at the shed watermark toward saturation, floored at
// 1/8 so admitted work always gets a workable budget.
func (g *governor) clampTerms(t lease.Terms) lease.Terms {
	p := g.pressure()
	w := g.cfg.ShedWatermark
	if p < w {
		return t
	}
	f := (1 - p) / (1 - w)
	if f < 0.125 {
		f = 0.125
	}
	t.Duration = time.Duration(float64(t.Duration) * f)
	if t.Duration < time.Millisecond {
		t.Duration = time.Millisecond
	}
	t.MaxBytes = int64(float64(t.MaxBytes) * f)
	g.i.met.Inc(trace.CtrGovClamps)
	return t
}

// sweepShrink runs one shrink sweep against the lease manager. A sweep
// that reclaims anything also pushes the revocation cooldown back: while
// re-negotiation is still yielding budget, the last resort stays off the
// table for at least another cooldown.
func (g *governor) sweepShrink() int64 {
	capy := g.i.mgr.Capacity()
	target := capy.MaxTotalBytes / 8
	if target <= 0 {
		target = 1 << 20
	}
	n := g.i.mgr.Shrink(target)
	if n > 0 {
		g.i.met.Inc(trace.CtrGovShrinks)
		g.i.met.Add(trace.CtrGovShrunkBytes, n)
		g.mu.Lock()
		g.lastRevoke = g.i.clk.Now()
		g.mu.Unlock()
	}
	return n
}

// maybeShrink runs a rate-limited shrink sweep: reclaim
// promised-but-unconsumed byte budget from active leases so pressure
// falls without refusing or revoking anything.
func (g *governor) maybeShrink() {
	now := g.i.clk.Now()
	g.mu.Lock()
	if now.Sub(g.lastShrink) < shrinkInterval {
		g.mu.Unlock()
		return
	}
	g.lastShrink = now
	g.mu.Unlock()
	g.sweepShrink()
}

// maybeRevoke is the last rung: only past the revoke watermark, only
// when a shrink sweep has nothing left to reclaim, and only after a full
// cooldown with no productive shrink. The paper is emphatic that
// revocation must stay a last resort "to avoid undermining the leasing
// system altogether" (§2.5).
func (g *governor) maybeRevoke(p float64) {
	if p < revokeWatermark {
		return
	}
	if g.sweepShrink() > 0 {
		return // shrinking still works: not yet the last resort
	}
	now := g.i.clk.Now()
	g.mu.Lock()
	if now.Sub(g.lastRevoke) < g.cfg.RevokeCooldown {
		g.mu.Unlock()
		return
	}
	g.lastRevoke = now
	g.mu.Unlock()
	if n := g.i.mgr.Revoke(1); n > 0 {
		g.i.met.Add(trace.CtrGovRevokes, int64(n))
	}
}

// worker serves queued work. Each message is handled under panic
// isolation: a poisoned frame degrades one op, not the node.
func (g *governor) worker() {
	defer g.i.wg.Done()
	for {
		select {
		case q := <-g.queue:
			g.noteQueueDelay(g.i.clk.Now().Sub(q.at))
			g.serveOne(q.m)
		case <-g.i.stopped:
			return
		}
	}
}

func (g *governor) serveOne(m *wire.Message) {
	defer g.finish(m)
	defer g.i.recoverPanic("serve")
	if g.i.draining.Load() {
		// The drain gate was passed before this message was admitted;
		// give the definitive refusal dispatch would have given.
		g.i.refuseDraining(m)
		return
	}
	switch m.Type {
	case wire.TOp:
		g.i.handleOp(m)
	case wire.TOut:
		g.i.handleRemoteOut(m)
	case wire.TEval:
		g.i.handleRemoteEval(m)
	}
}

// recoverPanic is deferred around serve and transport goroutines
// (tentpole requirement 5): a panic out of one frame's handling is
// counted and contained instead of tearing the instance down. The most
// recent panic is kept for the drain report.
func (i *Instance) recoverPanic(where string) {
	if r := recover(); r != nil {
		i.met.Inc(trace.CtrPanics)
		i.lastPanic.Store(fmt.Sprintf("%s: %v", where, r))
	}
}
