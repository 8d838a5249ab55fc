// Package core implements the Tiamat instance (paper §3, Figure 2): the
// lease manager, local tuple space, and communications manager wired
// together behind the logical-tuple-space operations.
//
// An Instance presents the six Linda operations with Tiamat semantics:
// out/eval act on the local space by default; rd/rdp/in/inp operate on the
// opportunistic logical space — the union of the local space and the
// spaces of all currently visible instances — by propagating the
// operation under the budget of its lease. Direct remote variants (OutAt,
// RdAt, …) target a specific space handle (paper §2.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/internal/discovery"
	"tiamat/internal/replica"
	"tiamat/internal/splitmix"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// Errors reported by the instance.
var (
	// ErrNoMatch reports that a blocking operation's lease expired with
	// no match found. The paper (§2.5) accepts this as a deliberate
	// semantic change versus pure Linda: leases bound blocking.
	ErrNoMatch = errors.New("tiamat: no match within lease")
	// ErrClosed reports use of a closed instance.
	ErrClosed = errors.New("tiamat: instance closed")
	// ErrUnknownEval reports an eval naming an unregistered function.
	ErrUnknownEval = errors.New("tiamat: unknown eval function")
	// ErrRemoteRefused reports that a direct remote operation was
	// refused by the target instance (e.g. its lease manager offered
	// nothing).
	ErrRemoteRefused = errors.New("tiamat: remote refused")
	// ErrAbandoned reports an OutBack whose destination is unavailable
	// under RouteAbandon policy (paper §2.4).
	ErrAbandoned = errors.New("tiamat: operation abandoned")
)

// RoutePolicy decides what OutBack does when the destination instance is
// not currently visible (paper §2.4: "a policy, either at the application
// or system level, must be established").
type RoutePolicy uint8

// OutBack routing policies.
const (
	// RouteLocal places the tuple in the local space instead.
	RouteLocal RoutePolicy = iota
	// RouteAbandon abandons the operation with ErrAbandoned.
	RouteAbandon
	// RouteRelay attempts delivery via a backbone relay (§6 extension)
	// and falls back to the local space.
	RouteRelay
)

// EvalFunc is a registered active-tuple computation. Go cannot ship code
// between processes, so eval tuples carry a function name resolved against
// each instance's registry (see DESIGN.md, substitutions). The context is
// cancelled when the eval lease expires, halting the computation as §2.5
// requires.
type EvalFunc func(ctx context.Context, args tuple.Tuple) (tuple.Tuple, error)

// SpaceInfo describes a visible remote space, as learned from its
// announce or its space-info tuple.
type SpaceInfo struct {
	Addr       wire.Addr
	Persistent bool
	// Degraded is the space's gray-failure self-report from its announce:
	// it is serving, but slowly (stalling WAL fsyncs or a backed-up serve
	// queue), and should not be anyone's first contact.
	Degraded bool
}

// Result is a tuple returned by a read/take operation together with the
// handle of the space it came from, enabling OutBack (paper §2.4).
type Result struct {
	Tuple tuple.Tuple
	// From is the space the tuple was obtained from (the local address
	// for local hits).
	From wire.Addr
}

// Config configures an Instance. Endpoint is required; zero values of the
// remaining fields select the documented defaults.
type Config struct {
	// Endpoint attaches the instance to its network.
	Endpoint transport.Endpoint
	// Clock is the time source (default: wall clock). A clock.Queue
	// handed here is scheduled on, and closed by Close: it is the one
	// queue of the node, its lease manager and the store it builds.
	Clock clock.Clock
	// Metrics, when given, receives every counter of this instance under
	// the same name, on top of the registry the instance always counts
	// into (Instance.Metrics): hand one registry to a whole cluster and it
	// reads the cluster's sums while each node still reads its own.
	Metrics *trace.Metrics
	// Leases configures the lease manager (default: DefaultCapacity).
	Leases lease.Capacity
	// ContactFanout is how many cached responders a nonblocking
	// operation contacts at a time before moving down the list. The
	// default 1 is the paper's sequential top-down walk; larger values
	// trade messages for latency on lossy or slow networks.
	ContactFanout int
	// DisableResponderCache forces a multicast for every propagated
	// operation — the expensive strategy §3.1.3 argues against. Used by
	// experiment E2 as the ablation baseline.
	DisableResponderCache bool
	// ContinuousDiscovery re-multicasts open blocking operations every
	// RediscoverInterval so instances that become visible during the
	// operation participate (the model's semantics, §2.2; the paper's
	// prototype lists this as future work — both modes are provided).
	ContinuousDiscovery bool
	// RediscoverInterval is the re-multicast period (default 500ms).
	RediscoverInterval time.Duration
	// ContactTimeout is how long the communications manager waits for a
	// contacted responder's reply before retransmitting (default 250ms).
	// It is also the scale of the node's recovery timers: New derives the
	// retry backoff, the hold grace, both sweep periods and the orphan
	// grace from it (DESIGN.md §7, "Node timers").
	ContactTimeout time.Duration
	// RetryAttempts bounds transmissions per contact per operation
	// (default 3: one send plus two retries). Every retransmission also
	// consumes one unit of the operation lease's remote budget, so the
	// lease still bounds total communication effort (§2.5).
	RetryAttempts int
	// RetrySeed seeds the per-instance retry-jitter source so chaos and
	// mobility runs are reproducible. 0 derives a seed from the instance
	// address (distinct nodes jitter differently, a given topology is
	// stable run-to-run).
	RetrySeed uint64
	// DisableHedge turns off hedged blocking lookups (DESIGN.md §11): a
	// blocking rd/in then contacts responders ContactFanout at a time and
	// only advances down the list when a contact exhausts its retries.
	// Kept for the C4 gray-failure ablation; with it set a single slow
	// first contact stalls the whole walk.
	DisableHedge bool
	// Replicas is the replica-set size R for leased replication
	// (DESIGN.md §13): every Out, eval result and remote out is written
	// through to the R-1 ring-placed backups (a remote one's is sent, not
	// awaited), reads may be served from any live replica, and destructive
	// takes fail over down the holder chain when the primary is provably
	// dead. The default 1 disables replication entirely, and no frame then
	// carries a replica field.
	Replicas int
	// RoutePolicy selects OutBack behaviour (default RouteLocal).
	RoutePolicy RoutePolicy
	// Persistent marks this space as persistent in announcements and in
	// its space-info tuple.
	Persistent bool
	// Governor tunes serve-path admission control and load shedding
	// (DESIGN.md §9). The zero value selects workstation-class defaults;
	// the governor is always on.
	Governor GovernorConfig
	// Space overrides the local tuple space. The paper (§3.1.2) requires
	// the space to be replaceable by "any system which implements the
	// six standard Linda operations"; pass any space.Space here. The
	// default is tiamat/internal/store configured with the instance's
	// clock and metrics.
	Space space.Space
}

func (c *Config) applyDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Leases == (lease.Capacity{}) {
		c.Leases = lease.DefaultCapacity()
	}
	if c.ContactFanout <= 0 {
		c.ContactFanout = 1
	}
	if c.RediscoverInterval <= 0 {
		c.RediscoverInterval = 500 * time.Millisecond
	}
	if c.ContactTimeout <= 0 {
		c.ContactTimeout = 250 * time.Millisecond
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
}

// timers are the node's recovery timers, derived once in New from
// ContactTimeout (DESIGN.md §7, "Node timers"). At the default 250ms they
// read 50ms, 2s, 1s and 3s; the replica set derives its repair sweep's
// period from ContactTimeout too.
type timers struct {
	backoff     time.Duration // retryWait's base backoff and jitter bound
	holdGrace   time.Duration // how long a hold outlives its op TTL
	orphanSweep time.Duration // the orphan sweep's period
	orphanGrace time.Duration // how long a served peer may stay unreachable
}

// deriveTimers scales the recovery timers from the contact timeout. The
// hold grace is never shorter than the accept's retransmission schedule
// over attempts transmissions: the owner must not reinstate a tuple while
// its accept can still be on the way.
func deriveTimers(contact time.Duration, attempts int) timers {
	backoff := max(contact/5, 1)
	return timers{
		backoff:     backoff,
		holdGrace:   max(8*contact, acceptSchedule(contact, backoff, attempts)),
		orphanSweep: 4 * contact,
		orphanGrace: 12 * contact,
	}
}

// acceptSchedule is the longest the first attempts transmissions of an
// accept can take: Σ max retryWait(k) for k = 1..attempts, each the contact
// timeout plus backoff·2^(k-1) plus a full backoff of jitter.
func acceptSchedule(contact, backoff time.Duration, attempts int) time.Duration {
	var s time.Duration
	for k := 1; k <= attempts; k++ {
		s += contact + backoff<<(k-1) + backoff
	}
	return s
}

// SpaceInfoName is the first field of every space-info tuple (paper
// §2.4: "each tuple space in Tiamat contains a special tuple" carrying a
// handle on the space and information about it).
const SpaceInfoName = "tiamat:space"

// Instance is one Tiamat node: lease manager + local space +
// communications manager (paper Figure 2).
type Instance struct {
	cfg   Config
	tm    timers // derived from cfg.ContactTimeout in New
	ep    transport.Endpoint
	clk   clock.Clock
	met   *trace.Metrics
	ctr   counters // handles on met
	mgr   *lease.Manager
	local space.Space
	list  *discovery.ResponderList

	// deadlines times every deadline of this node off one clock timer
	// (clock.Queue): hold grace, accept retransmission, each walk's
	// contact-timeout, hedge and rediscovery tick, the replica write-through
	// wait, the sweeps, mgr's lease expiries and the built store's reclaims
	// (handed it as their clock). Its lock nests inside mu.
	deadlines *clock.Queue
	// opStates pools this instance's op states. A state cancelled just as
	// the queue collected it for firing is still touched by that firing,
	// under this queue's lock only: no other instance may schedule it.
	opStates sync.Pool

	mu sync.Mutex
	// closed is set by Close under mu. isClosed reads it without the lock;
	// code that must order it against the tables below reads it under mu.
	closed   atomic.Bool
	nextOpID uint64
	ops      map[uint64]*opState     // outbound operations awaiting replies
	holds    map[uint64]*pendingHold // tentative removals we are holding
	nextHold uint64
	// pendAccepts are accept retransmissions awaiting the owner's ack,
	// keyed by ack ID (ops.go: acceptHold).
	pendAccepts map[uint64]*pendingAccept
	announces   map[uint64]chan SpaceInfo // open Spaces() discovery rounds
	// requests and served hold the one record of every remote request this
	// node serves, keyed by (requester, op ID): requests the live ones,
	// admitted or parked (serve.go), served the finished ones, answered or
	// cancelled, at most servedCacheMax of them for at most dedupTTL
	// (served.go). A finished request stays in requests too only while its
	// wait has yet to retire.
	requests map[waitKey]request
	served   servedStore
	evals    map[string]EvalFunc
	relays   []wire.Addr
	// defReq is the requester used when an operation passes nil: built
	// once so the nil-requester hot path does not re-box a closure pair
	// per grant.
	defReq lease.Requester

	// gov is the serve-path resource governor: bounded admission of
	// remote work, per-peer fairness, and the shrink→shed→revoke
	// escalation ladder (DESIGN.md §9).
	gov *governor
	// lastPanic records the most recent recovered serve/transport panic
	// for the drain report.
	lastPanic atomic.Value // string

	// rs is the node's replica set (internal/replica), nil when
	// Replicas=1: the single pointer that gates every replication path.
	rs *replica.Set

	// rnd is the per-instance retry-jitter source (seeded in mobility.go).
	rnd splitmix.Source
	// suspect tracks, per served peer, when its reachability probes
	// started failing; the orphan sweep reaps a peer unreachable for a
	// full orphan grace. Guarded by mu.
	suspect map[wire.Addr]time.Time
	orphans *clock.Sweep // the orphan sweep, an entry on deadlines (mobility.go)

	// draining is set by Shutdown before any teardown happens: API entry
	// points and new remote work are refused while in-flight state
	// settles. It is atomic (not under mu) so the dispatch fast path can
	// test it lock-free.
	draining atomic.Bool
	// drained is made by Shutdown and closed by whichever retirement
	// leaves holds, ops and pendAccepts all empty (retiredLocked).
	// Guarded by mu.
	drained chan struct{}

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopped  chan struct{}
}

type waitKey struct {
	from wire.Addr
	id   uint64
}

// responderListMax bounds the responder cache.
const responderListMax = 64

// evalWorkers bounds concurrent eval computations; a node that wants
// another bound re-registers lease.ResThreads on its LeaseManager.
const evalWorkers = 4

// defaultTerms are proposed when an operation passes a nil Requester.
var defaultTerms = lease.Terms{Duration: 5 * time.Second, MaxRemotes: 16, MaxBytes: 64 << 10}

// New creates and starts an instance.
func New(cfg Config) (*Instance, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("tiamat: Config.Endpoint is required")
	}
	cfg.applyDefaults()
	// The node's own registry: everything the instance, its responder list
	// and the store it builds count lands here, and from here in
	// cfg.Metrics when one was given.
	met := trace.NewNode(cfg.Metrics)
	q := clock.QueueOf(cfg.Clock)
	i := &Instance{
		cfg: cfg,
		tm:  deriveTimers(cfg.ContactTimeout, cfg.RetryAttempts),
		ep:  cfg.Endpoint,
		clk: cfg.Clock,
		met: met,
		ctr: newCounters(met),
		mgr: lease.NewManager(cfg.Leases, q),
		list: discovery.NewResponderList(responderListMax, met,
			cfg.Clock),
		deadlines:   q,
		ops:         make(map[uint64]*opState),
		holds:       make(map[uint64]*pendingHold),
		pendAccepts: make(map[uint64]*pendingAccept),
		announces:   make(map[uint64]chan SpaceInfo),
		requests:    make(map[waitKey]request),
		evals:       make(map[string]EvalFunc),
		suspect:     make(map[wire.Addr]time.Time),
		stopped:     make(chan struct{}),
	}
	i.opStates.New = func() any { return newOpState(i) }
	i.seedRetryJitter()
	i.defReq = lease.Flexible(defaultTerms)
	if cfg.Space != nil {
		i.local = cfg.Space
	} else {
		i.local = store.New(store.WithClock(q), store.WithMetrics(met))
	}
	// A stored out's entry is its lease's live state (paper §2.5): its
	// removal report ends the reservation and revocation reaches it through
	// the space. A replayed space's outs are reserved once, after the report
	// is set, so a reclaim in between is counted on both sides or neither.
	i.local.OnRemove(i.removed)
	i.mgr.OnReclaim(i.reclaimOut)
	n, bytes, _, _ := i.local.Leases()
	i.mgr.Adopt(n, bytes)
	// Eval computations run on threads allocated through the lease
	// manager's thread factory (paper §3.1.1).
	i.mgr.RegisterResource(lease.ResThreads, evalWorkers)
	if err := i.seedSpaceInfo(); err != nil {
		return nil, err
	}
	i.gov = newGovernor(i, cfg.Governor)
	i.orphans = clock.NewSweep(q, i.sweepOrphans)
	i.orphans.SetPeriod(i.tm.orphanSweep)
	if cfg.Replicas >= 2 {
		i.rs = replica.New(replica.Host{
			Addr: i.Addr(), Replicas: cfg.Replicas, ContactTimeout: cfg.ContactTimeout,
			Queue: q, List: i.list, Local: i.local, Metrics: met,
			Relays: i.relaysNow, NextID: i.nextOp, Send: i.send,
			Multicast: func(m *wire.Message) { _, _ = i.ep.Multicast(m) },
			Announce:  func() *wire.Message { return i.announce(0) },
			Closed:    i.isClosed, Stopping: i.stopping, Stopped: i.stopped,
			Recover: i.recoverPanic,
		})
	}
	// Hello: an unsolicited announce folds this instance into the
	// responder lists of every peer that hears it (handleAnnounce keeps
	// unsolicited announces as "useful knowledge"), so a restarted node
	// is contactable again without waiting to be rediscovered. Its ID,
	// helloID, is never used by a discovery round, so no open round
	// mistakes it for a reply, and it tells every peer that hears it to
	// forget this address's earlier life (forgetLife). Best-effort: a
	// node that boots in isolation is found by ordinary discovery later.
	// Like every announce it carries this build's capability set, without
	// which no peer lists it. It goes out before the receive loop starts,
	// and so before this life's first op.
	_, _ = i.ep.Multicast(i.announce(helloID))
	i.wg.Add(1)
	go i.loop()
	if i.gov.queue != nil { // a space that may block is served off the loop
		for w := 0; w < serveWorkers; w++ {
			i.wg.Add(1)
			go i.gov.worker()
		}
	}
	return i, nil
}

// PeerCaps reports whether peer is on the responder list and, if so, the
// capability set every listed peer has: wire.CapsCurrent, the wire floor
// (DESIGN.md §14). It stays for the frozen benchmark module, which waits
// on it for its peers to be listed.
func (i *Instance) PeerCaps(peer wire.Addr) (caps uint64, listed bool) {
	if !i.list.Contains(peer) {
		return 0, false
	}
	return wire.CapsCurrent, true
}

// announce returns a fresh announce of this node under id: its address,
// persistence, this build's capability set and the degraded self-report.
func (i *Instance) announce(id uint64) *wire.Message {
	return &wire.Message{
		Type: wire.TAnnounce, ID: id, From: i.Addr(), Persistent: i.cfg.Persistent,
		Caps: wire.CapsCurrent, Degraded: i.Degraded(),
	}
}

// Addr returns the instance's contact address.
func (i *Instance) Addr() wire.Addr { return i.ep.Addr() }

// LeaseManager exposes the instance's lease manager (resource policy,
// stats, revocation).
func (i *Instance) LeaseManager() *lease.Manager { return i.mgr }

// LocalSpace exposes the local tuple space.
func (i *Instance) LocalSpace() space.Space { return i.local }

// Metrics returns the node's own registry: what this instance counted,
// and nothing another instance did, whether or not Config.Metrics is
// shared. Governor, Mobility, Gray and Replication read their counter
// fields from it.
func (i *Instance) Metrics() *trace.Metrics { return i.met }

// counted reads one of the node's event counters for a report field.
func (i *Instance) counted(name string) uint64 { return uint64(i.met.Get(name)) }

// ResponderList exposes the cached responder order (top first), mainly
// for monitoring and experiments.
func (i *Instance) ResponderList() []wire.Addr { return i.list.Snapshot() }

// RegisterEval installs fn under name for local and remote eval requests.
func (i *Instance) RegisterEval(name string, fn EvalFunc) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.evals[name] = fn
}

// SetRelays replaces the backbone relay set used by RouteRelay.
func (i *Instance) SetRelays(relays []wire.Addr) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.relays = append([]wire.Addr(nil), relays...)
}

// relaysNow returns the relay set. SetRelays replaces it whole, so it is
// never written in place.
func (i *Instance) relaysNow() []wire.Addr {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.relays
}

// Shutdown stops the instance gracefully, bounded by ctx:
//
//  1. New work is refused: local operations return ErrClosed and remote
//     requests are answered with not-found / a refusal ack, so peers
//     move on to other responders instead of burning retries here.
//  2. A goodbye announcement is multicast; peers drop this node from
//     their responder lists immediately (discovery.Depart) rather than
//     discovering its absence one failed contact at a time.
//  3. Blocking waits served for peers are settled with a definitive
//     not-found, and in-flight holds and outbound operations are given
//     until ctx expires to settle.
//  4. The local space is flushed (space.Syncer) and the instance closes.
//
// What survives a restart after Shutdown is exactly what survives a
// crash with a persistent space: the tuples. Leases, holds, served
// waiters, and responder lists are node-local runtime state and are
// deliberately released, not preserved — a restarted node renegotiates
// leases and rediscovers its neighbourhood (DESIGN.md §8).
//
// Shutdown returns the ctx error if the drain was cut short; the
// instance is closed either way. Calling Shutdown on a closed or
// already-draining instance waits for that teardown instead of starting
// another.
func (i *Instance) Shutdown(ctx context.Context) error {
	if !i.draining.CompareAndSwap(false, true) {
		select {
		case <-i.stopped:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if i.isClosed() {
		return nil
	}
	i.sendGoodbye()

	// Settle peers' blocking waits with a definitive answer: their
	// operations fail over to other responders instead of timing out
	// against a dead address.
	i.endWaits("", true)

	// Drain: holds settle when their requester accepts/releases (or
	// their grace deadline passes); outbound ops settle as replies arrive.
	// The last of them to retire closes drained; ctx bounds the wait.
	i.mu.Lock()
	drained := make(chan struct{})
	i.drained = drained
	i.retiredLocked()
	i.mu.Unlock()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	if sy, ok := i.local.(space.Syncer); ok {
		if serr := sy.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	_ = i.Close()
	return err
}

// retiredLocked runs under mu after a hold, op or pending accept left its
// table: when that was the last one and Shutdown is draining, it wakes
// Shutdown.
func (i *Instance) retiredLocked() {
	if i.drained != nil && len(i.holds)+len(i.ops)+len(i.pendAccepts) == 0 {
		close(i.drained)
		i.drained = nil
	}
}

// sendGoodbye multicasts this node's departure.
func (i *Instance) sendGoodbye() {
	i.ctr.goodbyes.Inc()
	_, _ = i.ep.Multicast(&wire.Message{Type: wire.TGoodbye, ID: i.nextOp(), From: i.Addr()})
}

// Close stops the instance: the event loop exits, all leases are
// cancelled — each served wait is unparked by its own lease's end — and
// the local space closes.
func (i *Instance) Close() error {
	i.stopOnce.Do(func() {
		i.mu.Lock()
		i.closed.Store(true)
		i.mu.Unlock()
		_ = i.ep.Close() // closes Recv, unblocking the loop
		close(i.stopped)
		i.mgr.Close()       // cancel leases: halts evals, ends served waits
		_ = i.local.Close() // unblocks store waiters
		i.wg.Wait()
		i.deadlines.Close() // pending graces and retransmissions go with it
		i.mu.Lock()
		i.holds = make(map[uint64]*pendingHold)
		i.pendAccepts = make(map[uint64]*pendingAccept)
		i.mu.Unlock()
	})
	return nil
}

// loop is the communications manager's event loop: it dispatches every
// inbound message. Settlement traffic is handled here; serve work
// (TOp/TOut/TEval) is admitted by the governor, which serves it on this
// goroutine when the space declares it never blocks and queues it for
// the worker pool otherwise. No handler waits for another frame, since
// only this loop could deliver it; what it may wait on is a transport
// Send and, for a persist space under SyncAlways, an accept's fsync
// (DESIGN.md §9). Each message is dispatched under panic isolation: a
// poisoned frame degrades one op, not the node.
func (i *Instance) loop() {
	defer i.wg.Done()
	for m := range i.ep.Recv() {
		i.dispatchSafe(m)
	}
}

func (i *Instance) dispatchSafe(m *wire.Message) {
	defer i.recoverPanic("dispatch")
	i.dispatch(m)
}

// Governor snapshots the serve-path governor's activity (sheds, shrinks,
// revocations), for the drain report and experiments.
func (i *Instance) Governor() GovernorReport { return i.gov.Report() }

// ReplicationReport snapshots the replica set (internal/replica).
type ReplicationReport = replica.ReplicationReport

// Replication snapshots the replication machinery, for the drain report
// and experiments. The zero report is returned when replication is off
// (R=1).
func (i *Instance) Replication() ReplicationReport {
	if i.rs == nil {
		return ReplicationReport{}
	}
	return i.rs.Report()
}

// ReplicaCopies counts unexpired replica copies matching p, for
// experiments asserting replication converged.
func (i *Instance) ReplicaCopies(p tuple.Template) int {
	if i.rs == nil {
		return 0
	}
	return i.rs.Copies(p, i.clk.Now())
}

// LastPanic returns a description of the most recent recovered panic, or
// "" if none occurred.
func (i *Instance) LastPanic() string {
	s, _ := i.lastPanic.Load().(string)
	return s
}

// send transmits a message to one peer, evicting unreachable responders
// from the list (paper §3.1.3: "removing any which do not respond"). The
// frame goes out whole: every listed peer is at the wire floor (DESIGN.md
// §14). m is never written, so callers may share it across retries,
// destinations and goroutines.
func (i *Instance) send(to wire.Addr, m *wire.Message) error {
	err := i.ep.Send(to, m)
	if errors.Is(err, transport.ErrUnreachable) {
		i.list.Evict(to)
	}
	return err
}

func (i *Instance) nextOp() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.nextOpID++
	return i.nextOpID
}

// requester normalises a possibly-nil Requester.
func (i *Instance) requester(r lease.Requester) lease.Requester {
	if r == nil {
		return i.defReq
	}
	return r
}

// seedSpaceInfo seeds the space-info tuple (paper §2.4): a handle on
// this space and whether it is persistent, never expiring, one per space,
// so a persistent space keeps the one it replayed.
func (i *Instance) seedSpaceInfo() error {
	info := tuple.T(tuple.String(SpaceInfoName), tuple.String(string(i.Addr())), tuple.Bool(i.cfg.Persistent))
	if _, ok := i.local.Rdp(tuple.TemplateOf(info)); ok {
		return nil
	}
	if _, err := i.local.Out(info, time.Time{}); err != nil {
		return fmt.Errorf("tiamat: seeding space-info tuple: %w", err)
	}
	return nil
}

// removed is the space's removal report: an entry with an expiry ends its
// out's reservation, and the replicas of any entry are dropped.
func (i *Instance) removed(e space.Entry) {
	if !e.Expiry.IsZero() {
		i.mgr.Unreserve(e.Size)
	}
	if i.rs != nil {
		i.rs.Removed(e.ID)
	}
}

// reclaimOut is the lease.ReclaimFunc: it removes the soonest-expiring
// out, whose removal report ends its reservation.
func (i *Instance) reclaimOut(by time.Time) bool {
	_, _, e, ok := i.local.Leases()
	if !ok || (!by.IsZero() && e.Expiry.After(by)) {
		return false
	}
	_, ok = i.local.Remove(e.ID)
	return ok
}

// out reserves offer's out lease for t, its size past offer.MaxBytes
// ErrBudget, and places t until offer.Duration after now: Out and a
// served remote out.
func (i *Instance) out(t tuple.Tuple, offer lease.Terms, await bool, now time.Time) error {
	size := t.Size()
	if err := i.mgr.Reserve(offer, size); err != nil {
		return err
	}
	return i.place(t, size, now.Add(offer.Duration), offer.MaxRemotes, await, now)
}

// place stores t, reserved for size bytes, until expiry: Out, an eval's
// result and a served remote out come here. From then on the entry is the
// out lease, ended by its removal report (removed); a failed store ends it
// at once. Then the replica set writes t through to its ring backups
// under remotes, the out's remote budget, awaiting their acks only on an
// op's own goroutine: a frame being served never waits. now is the
// placement's reading. A placement that Close may have left nowhere is
// ErrClosed.
func (i *Instance) place(t tuple.Tuple, size int64, expiry time.Time, remotes int, await bool, now time.Time) error {
	if i.rs != nil {
		i.rs.Placing()
	}
	sid, err := i.local.Out(t, expiry)
	if err != nil {
		i.mgr.Unreserve(size)
		sid = 0 // the replica set's window closes on no record
	}
	if i.rs != nil && !i.rs.Placed(sid, t, expiry, remotes, await, now) {
		return ErrClosed
	}
	return err
}

// isClosed reports whether Close has begun.
func (i *Instance) isClosed() bool { return i.closed.Load() }

// closedOr returns ErrClosed for an operation that failed once Close had
// begun — the lease manager's or the space's own closed error, or a lease
// Close cancelled under it — and err otherwise.
func (i *Instance) closedOr(err error) error {
	if i.isClosed() {
		return ErrClosed
	}
	return err
}

// stopping reports whether the instance is draining or closed: the gate
// for new work at API entry points. Internal settlement paths (cancel,
// release, hold accounting) keep running during a drain and gate on
// isClosed alone.
func (i *Instance) stopping() bool {
	return i.draining.Load() || i.isClosed()
}
