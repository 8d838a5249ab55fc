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
	// Clock is the time source (default: wall clock).
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
	// Kept for the C4 gray-failure ablation and mixed-version runs; with
	// it set a single slow first contact stalls the whole walk.
	DisableHedge bool
	// Replicas is the replica-set size R for leased replication
	// (DESIGN.md §13): every out is written through to the R-1
	// ring-placed backups, reads may be served from any live replica,
	// and destructive takes fail over down the holder chain when the
	// primary is provably dead. The default 1 disables replication
	// entirely and keeps every frame byte-identical to the
	// pre-replication protocol.
	Replicas int
	// CapsMask clears capability bits (wire.Cap*) from both this
	// instance's advertised set and its locally produced wire features:
	// a masked bit is never announced, and the optional fields it covers
	// are never emitted — the node is byte-compatible with the build
	// that predates the feature. Masking wire.CapReplicaIdentity also
	// disables the replication machinery regardless of Replicas, since a
	// node that may not emit replica frames cannot hold up its end of
	// the protocol. Used for canarying rolling upgrades (tiamatd
	// -caps-mask) and by the C6 mixed-version soak to simulate old
	// binaries. Zero masks nothing (DESIGN.md §14).
	CapsMask uint64
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
// read 50ms, 2s, 1s, 3s and 1s.
type timers struct {
	backoff     time.Duration // retryWait's base backoff and jitter bound
	holdGrace   time.Duration // how long a hold outlives its op TTL
	orphanSweep time.Duration // the orphan sweep's period
	orphanGrace time.Duration // how long a served peer may stay unreachable
	repair      time.Duration // the repair sweep's period and resend pacing
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
		repair:      4 * contact,
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
	mgr   *lease.Manager
	local space.Space
	list  *discovery.ResponderList

	// caps is this instance's capability set: wire.CapsCurrent minus
	// Config.CapsMask. Immutable after New; the per-destination feature
	// gate is caps ∩ the peer's advertised set (linkCaps).
	caps uint64

	// deadlines times every deadline of this instance off one clock timer
	// (clock.Queue): hold grace, accept retransmission, each walk's
	// contact-timeout, hedge and rediscovery tick, the replica write-through
	// wait, and the orphan and repair sweeps. Its lock nests inside mu.
	deadlines *clock.Queue
	// opStates pools this instance's op states. A state cancelled just as
	// the queue collected it for firing is still touched by that firing,
	// under this queue's lock only: no other instance may schedule it.
	opStates sync.Pool

	mu       sync.Mutex
	closed   bool
	nextOpID uint64
	ops      map[uint64]*opState     // outbound operations awaiting replies
	holds    map[uint64]*pendingHold // tentative removals we are holding
	nextHold uint64
	// pendAccepts are accept retransmissions awaiting the owner's ack,
	// keyed by ack ID (ops.go: acceptHold).
	pendAccepts map[uint64]*pendingAccept
	waits       map[waitKey]*remoteWait   // blocking waiters we serve for peers
	announces   map[uint64]chan SpaceInfo // open Spaces() discovery rounds
	// served caches replies to already-handled remote requests, keyed by
	// (requester, op ID). Retransmitted or duplicated frames are answered
	// from the cache instead of re-executed: at-least-once delivery plus
	// idempotent handlers yields effectively-once semantics (§3.1.3).
	// Entries expire after dedupTTL and the cache is size-bounded;
	// see recordServed.
	served      map[waitKey]servedReply
	servedOrder []servedRef // FIFO eviction order for served
	servedSeq   uint64      // stamps entries so refs track re-recordings
	// accepted records holds this instance has accepted, so a late
	// duplicate result never triggers a release that could overtake the
	// accept and reinstate a taken tuple.
	accepted      map[acceptKey]bool
	acceptedOrder []acceptKey // FIFO eviction order for accepted
	// Out-lease bookkeeping in both directions: a removed tuple releases
	// its lease immediately (removal hook), and a revoked lease drops its
	// tuple (OnRevoke).
	outBySid   map[uint64]*lease.Lease // store tuple id -> out lease
	sidByLease map[uint64]uint64       // lease ID -> store tuple id
	// An out learns its tuple's id only when the space's Out returns, and
	// that Out may already have handed the tuple to a parked remote taker
	// and sent the reply: the removal can be final before there is a record
	// to release. outsPending counts the outs in that window (raised
	// before the space is called, lowered under mu with the record made);
	// removedEarly keeps the ids removals asked about and found nothing
	// for while it is non-zero, so the out finds its own there (outLeased).
	outsPending  atomic.Int32
	removedEarly map[uint64]struct{}
	evals        map[string]EvalFunc
	relays       []wire.Addr
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

	// rtt digests recent first-attempt round-trip samples; its upper
	// percentile paces hedged blocking lookups (hedge.go).
	rtt rttDigest

	// repl is the replication manager (replica.go), nil when Replicas=1:
	// the single pointer that gates every replication code path.
	repl *replicator

	// rnd is the per-instance retry-jitter source (seeded in mobility.go).
	rnd splitmix.Source
	// suspect tracks, per served peer, when its reachability probes
	// started failing; the orphan sweep reaps a peer unreachable for a
	// full orphan grace. Guarded by mu.
	suspect map[wire.Addr]time.Time
	orphans sweep // the orphan sweep's entry on deadlines (mobility.go)

	// capsProbes rate-limits capability probes: when a frame arrives
	// from a peer whose capability set is still unknown, we unicast one
	// TDiscover (its announce reply carries the peer's caps — or lacks
	// them, marking it baseline) instead of guessing. Guarded by mu.
	capsProbes map[wire.Addr]time.Time

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

// acceptKey identifies a tentative hold at its owner.
type acceptKey struct {
	owner  wire.Addr
	holdID uint64
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
	i := &Instance{
		cfg:  cfg,
		tm:   deriveTimers(cfg.ContactTimeout, cfg.RetryAttempts),
		ep:   cfg.Endpoint,
		clk:  cfg.Clock,
		met:  met,
		caps: wire.CapsCurrent &^ cfg.CapsMask,
		mgr:  lease.NewManager(cfg.Leases, cfg.Clock),
		list: discovery.NewResponderList(responderListMax, met,
			discovery.WithClock(cfg.Clock)),
		deadlines:    clock.NewQueue(cfg.Clock),
		ops:          make(map[uint64]*opState),
		holds:        make(map[uint64]*pendingHold),
		pendAccepts:  make(map[uint64]*pendingAccept),
		waits:        make(map[waitKey]*remoteWait),
		announces:    make(map[uint64]chan SpaceInfo),
		served:       make(map[waitKey]servedReply),
		accepted:     make(map[acceptKey]bool),
		outBySid:     make(map[uint64]*lease.Lease),
		sidByLease:   make(map[uint64]uint64),
		removedEarly: make(map[uint64]struct{}),
		evals:        make(map[string]EvalFunc),
		suspect:      make(map[wire.Addr]time.Time),
		capsProbes:   make(map[wire.Addr]time.Time),
		stopped:      make(chan struct{}),
	}
	i.opStates.New = func() any { return newOpState(i) }
	i.seedRetryJitter()
	i.defReq = lease.Flexible(defaultTerms)
	if cfg.Space != nil {
		i.local = cfg.Space
	} else {
		// The removal hook releases an out-lease the moment its tuple
		// leaves the space (taken, reclaimed, or removed), so consumed
		// tuples stop counting against MaxActive and the byte pool.
		i.local = store.New(
			store.WithClock(cfg.Clock),
			store.WithMetrics(met),
			store.WithRemovalHook(i.releaseOutLease),
		)
	}
	// Eval computations run on threads allocated through the lease
	// manager's thread factory (paper §3.1.1).
	i.mgr.RegisterResource(lease.ResThreads, evalWorkers)
	// Revoked out-leases drop their tuples (last-resort reclamation).
	i.mgr.OnRevoke(func(l *lease.Lease) {
		i.mu.Lock()
		sid, ok := i.sidByLease[l.ID()]
		delete(i.sidByLease, l.ID())
		delete(i.outBySid, sid)
		i.mu.Unlock()
		if ok {
			i.local.Remove(sid)
			i.replOnLocalRemoval(sid)
		}
	})
	// The space-info tuple (paper §2.4): a handle on this space plus
	// whether it is persistent. Never expires.
	info := tuple.T(tuple.String(SpaceInfoName), tuple.String(string(i.Addr())), tuple.Bool(cfg.Persistent))
	if _, err := i.local.Out(info, time.Time{}); err != nil {
		return nil, fmt.Errorf("tiamat: seeding space-info tuple: %w", err)
	}
	i.gov = newGovernor(i, cfg.Governor)
	i.orphans = sweep{i: i, every: i.tm.orphanSweep, pass: i.sweepOrphans}
	i.orphans.next()
	if cfg.Replicas >= 2 && i.caps&wire.CapReplicaIdentity != 0 {
		i.repl = newReplicator(i)
		i.repl.repair.next()
	}
	// Hello: an unsolicited announce folds this instance into the
	// responder lists of every peer that hears it (handleAnnounce keeps
	// unsolicited announces as "useful knowledge"), so a restarted node
	// is contactable again without waiting to be rediscovered. Its ID,
	// helloID, is never used by a discovery round, so no open round
	// mistakes it for a reply, and it tells every peer that hears it to
	// forget this address's earlier life (forgetLife). Best-effort: a
	// node that boots in isolation is found by ordinary discovery later.
	// The hello always carries this build's capability set (when any):
	// peers must learn it before any gated feature can activate toward
	// us, and a pre-capability listener rejecting the extended frame costs
	// exactly one bounded decode failure per boot — it learns us through
	// its own discover probe and our gated unicast reply instead. So it
	// goes out before the receive loop starts: a frame handled first puts
	// its sender on the responder list, and one sender of unknown build
	// empties the capability set a multicast may carry.
	hello := &wire.Message{Type: wire.TAnnounce, ID: helloID, From: i.Addr(), Persistent: cfg.Persistent}
	i.stampAnnounce(hello)
	_, _ = i.multicast(hello)
	i.wg.Add(1)
	go i.loop()
	for w := 0; w < serveWorkers; w++ {
		i.wg.Add(1)
		go i.gov.worker()
	}
	return i, nil
}

// Caps returns this instance's capability set (wire.CapsCurrent minus
// the configured mask).
func (i *Instance) Caps() uint64 { return i.caps }

// BaselinePeers reports how many cached responders are known to run a
// pre-capability build, for the drain summary and canary monitoring.
func (i *Instance) BaselinePeers() int { return i.list.BaselinePeers() }

// PeerCaps reports the capability set learned for peer and whether its
// build is known at all — false means we are still probing and every
// versioned feature is conservatively off toward it.
func (i *Instance) PeerCaps(peer wire.Addr) (uint64, bool) {
	caps, st := i.list.CapsKnowledge(peer)
	return caps, st != discovery.CapsUnknown
}

// CapsReport snapshots the capability-negotiation machinery (DESIGN.md
// §14) for the drain summary and canary monitoring during a rolling
// upgrade.
type CapsReport struct {
	Local         uint64 // this node's advertised capability set
	Learned       int64  // announces that taught us a peer's capability set
	GatedSends    int64  // frames stripped or withheld toward baseline peers
	BaselinePeers int    // cached responders known to run pre-capability builds
}

// CapsSummary reports how capability negotiation went this run.
func (i *Instance) CapsSummary() CapsReport {
	return CapsReport{
		Local:         i.caps,
		Learned:       i.met.Get(trace.CtrCapsLearned),
		GatedSends:    i.met.Get(trace.CtrCapsGatedSends),
		BaselinePeers: i.list.BaselinePeers(),
	}
}

// stampAnnounce fills the capability-bearing optional fields of an
// outbound announce from local state: the advertised capability set and
// the degraded self-report, both subject to the configured mask. send
// still drops them toward a peer known to run a pre-capability build.
func (i *Instance) stampAnnounce(m *wire.Message) {
	m.Caps = i.caps
	m.Degraded = i.Degraded() && i.caps&wire.CapDegraded != 0
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
// shared. Governor, Mobility, Gray, Replication and CapsSummary read their
// counter fields from it.
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
	i.mu.Lock()
	waits := make([]*remoteWait, 0, len(i.waits))
	for _, w := range i.waits {
		waits = append(waits, w)
	}
	i.mu.Unlock()
	for _, w := range waits {
		w.end(true)
	}

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

// sendGoodbye announces this node's departure. TGoodbye is a versioned
// frame — pre-goodbye decoders reject the unknown type — so the multicast
// is refused unless every cached responder advertises the capability;
// it then goes unicast to the capable members, and the others fall back
// to the pre-goodbye behaviour of discovering the departure one failed
// contact at a time. A node masked below CapGoodbye sends nothing, like
// the build it simulates.
func (i *Instance) sendGoodbye() {
	i.met.Inc(trace.CtrGoodbyes)
	bye := &wire.Message{Type: wire.TGoodbye, ID: i.nextOp(), From: i.Addr()}
	if _, err := i.multicast(bye); errors.Is(err, errCapsGated) {
		for _, a := range i.list.Members() {
			_ = i.send(a, bye)
		}
	}
}

// Close stops the instance: the event loop exits, all leases are
// cancelled — each served wait is unparked by its own lease's end — and
// the local space closes.
func (i *Instance) Close() error {
	i.stopOnce.Do(func() {
		i.mu.Lock()
		i.closed = true
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
// (TOp/TOut/TEval) is admitted by the governor, which serves an op on
// this goroutine when the node is idle and queues everything else for
// its worker pool. No handler waits for another frame, since only this
// loop could deliver it; what it may wait on is a transport Send and,
// for a persist space under SyncAlways, an accept's fsync (DESIGN.md
// §9). Each message is dispatched under panic isolation: a poisoned
// frame degrades one op, not the node.
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

// LastPanic returns a description of the most recent recovered panic, or
// "" if none occurred.
func (i *Instance) LastPanic() string {
	s, _ := i.lastPanic.Load().(string)
	return s
}

// errCapsGated reports a frame withheld because its audience has not
// advertised a capability the frame's encoding requires and the field
// cannot be dropped without changing the frame's meaning.
var errCapsGated = errors.New("tiamat: destination lacks required capability")

// send transmits a message to one peer, evicting unreachable responders
// from the list (paper §3.1.3: "removing any which do not respond"). The
// frame is encoded for its audience (DESIGN.md §14): when it carries
// versioned fields the peer has not advertised, the transport is handed
// wire.Restrict's copy instead — advisory fields dropped — or nothing at
// all when a semantic field is in the way (errCapsGated; the replica ring
// keeps such frames away from incapable peers in the first place). m is
// never written, so callers may share it across retries, destinations
// and goroutines.
func (i *Instance) send(to wire.Addr, m *wire.Message) error {
	if wire.FeaturesOf(m) != 0 {
		var err error
		if m, err = i.restrict(m, i.linkCaps(to, m)); err != nil {
			return err
		}
	}
	err := i.ep.Send(to, m)
	if errors.Is(err, transport.ErrUnreachable) {
		i.list.Evict(to)
	}
	return err
}

// multicast transmits a message to every listener in range, encoded for
// the capabilities every cached responder shares — listeners the list
// does not know are assumed no older than the ones it does.
func (i *Instance) multicast(m *wire.Message) (int, error) {
	if wire.FeaturesOf(m) != 0 {
		var err error
		if m, err = i.restrict(m, i.caps&i.list.CommonCaps()); err != nil {
			return 0, err
		}
	}
	return i.ep.Multicast(m)
}

// linkCaps returns the capability set m may exercise toward to: the
// intersection of this instance's capabilities and what the peer has
// advertised — nothing, for unknown and known-baseline peers. Announces
// are the one exception: toward anyone not known to run a pre-capability
// build they carry everything this build emits, as an optimistic probe.
// A new peer learns us immediately; an old one rejects the frame
// (bounded: its own caps-less announce marks it baseline here, and
// probing stops) and still learns us through its discover probes, which
// we answer in baseline form.
func (i *Instance) linkCaps(to wire.Addr, m *wire.Message) uint64 {
	peer, st := i.list.CapsKnowledge(to)
	if m.Type == wire.TAnnounce && st != discovery.CapsBaseline {
		return i.caps
	}
	return i.caps & peer
}

// restrict returns the form of m an audience advertising allowed can
// decode: m itself when it already fits, else a restricted copy.
func (i *Instance) restrict(m *wire.Message, allowed uint64) (*wire.Message, error) {
	if wire.Fits(m, allowed) {
		return m, nil
	}
	i.met.Inc(trace.CtrCapsGatedSends)
	r, ok := wire.Restrict(m, allowed)
	if !ok {
		return nil, errCapsGated
	}
	return &r, nil
}

// capsProbeInterval bounds how often a still-unknown peer is re-probed;
// one delivered probe settles the question, the interval only covers
// frame loss.
const capsProbeInterval = time.Second

// maybeProbeCaps fires a unicast discovery probe toward a peer we are
// hearing from but whose capability set is still unknown. The peer's
// handleDiscover answers with an announce: a capability-bearing one
// teaches us its full set, a bare one proves a pre-capability build
// (handleAnnounce marks it baseline). Without the probe, capability
// knowledge flows one way — discoverers learn responders from announce
// replies, but a responder serving a never-announcing requester would
// gate advisory features (busy replies, budgets, …) toward it forever.
func (i *Instance) maybeProbeCaps(from wire.Addr) {
	if from == i.Addr() || i.stopping() {
		return
	}
	if _, st := i.list.CapsKnowledge(from); st != discovery.CapsUnknown {
		return
	}
	now := i.clk.Now()
	i.mu.Lock()
	if last, ok := i.capsProbes[from]; ok && now.Sub(last) < capsProbeInterval {
		i.mu.Unlock()
		return
	}
	i.capsProbes[from] = now
	i.mu.Unlock()
	_ = i.send(from, &wire.Message{Type: wire.TDiscover, ID: i.nextOp(), From: i.Addr()})
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

// releaseOutLease cancels the out-lease covering the removed tuple.
func (i *Instance) releaseOutLease(sid uint64) {
	i.mu.Lock()
	lse, ok := i.outBySid[sid]
	if ok {
		delete(i.outBySid, sid)
		delete(i.sidByLease, lse.ID())
	} else if i.outsPending.Load() > 0 {
		i.removedEarly[sid] = struct{}{}
	}
	i.mu.Unlock()
	if ok {
		lse.Cancel()
		// The authoritative copy is gone: tell every replica holder to
		// drop theirs (replica.go). Ordered after the lease-record delete
		// so replWriteThrough's liveness re-check cannot race a removal
		// into replicating a consumed tuple.
		i.replOnLocalRemoval(sid)
	}
}

// outLeased puts t into the local space until lse's deadline and records
// the lease against the stored tuple's id, which it returns. It returns 0
// when nothing stays stored under the lease, for the caller to cancel it:
// the tuple was consumed by a waiting local taker, or handed to a parked
// remote one whose accept was settled before the space's Out returned.
func (i *Instance) outLeased(t tuple.Tuple, lse *lease.Lease) (uint64, error) {
	i.outsPending.Add(1)
	sid, err := i.local.Out(t, lse.Deadline())
	i.mu.Lock()
	if err == nil && sid != 0 {
		if _, gone := i.removedEarly[sid]; gone {
			sid = 0
		} else if !i.closed {
			i.outBySid[sid] = lse
			i.sidByLease[lse.ID()] = sid
		}
	}
	if i.outsPending.Add(-1) == 0 && len(i.removedEarly) > 0 {
		clear(i.removedEarly)
	}
	i.mu.Unlock()
	return sid, err
}

// isClosed reports whether Close has begun.
func (i *Instance) isClosed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.closed
}

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
