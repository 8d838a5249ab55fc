// Package trace provides the lightweight metrics registry shared by the
// Tiamat instance, the simulated network, and the baseline systems. The
// experiment harness snapshots these counters to produce the series
// reported in EXPERIMENTS.md.
//
// A counter is written one of two ways. The hot paths (core, the store,
// the responder list and both transports) resolve a handle once, when
// they are built (Metrics.Counter), and bump it with atomics alone: no
// name lookup and no lock per event. Metrics.Add, Inc and Set resolve the
// name under the registry's lock on every call, which is what occasional
// writers and the benchmark module use.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a set of named monotonic counters and gauges. The zero value
// is ready to use. All methods are safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	parent   *Metrics // receives every Add/Inc/Set under the same name; nil on a root
	counters map[string]*Counter
	// free is the rest of the block new counters are carved from: a node
	// resolves its handles when it is built, and a block makes that a few
	// allocations, not one per name.
	free []Counter
}

// counterBlock is how many counters a registry allocates at a time, about
// what a node resolves when it is built.
const counterBlock = 64

// Counter is one named value of a registry, and the handle its writers
// keep (Metrics.Counter). up is the parent registry's counter of the same
// name, resolved when the counter is made, so a write through the handle
// is one atomic operation per registry up the chain and nothing else.
type Counter struct {
	v  atomic.Int64
	up *Counter
}

// Add increments the counter, and its ancestors', by delta.
func (c *Counter) Add(delta int64) {
	for ; c != nil; c = c.up {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the counter's value in its own registry.
func (c *Counter) Load() int64 { return c.v.Load() }

// Set stores an absolute value here and in every ancestor (gauge
// semantics).
func (c *Counter) Set(v int64) {
	for ; c != nil; c = c.up {
		c.v.Store(v)
	}
}

// NewNode returns a registry that keeps its own values and forwards every
// Add, Inc and Set to parent (nil: to nobody), so each node of a cluster
// reads what it counted itself and a parent they share reads their sum.
// Get, Snapshot, Diff, Reset and String concern the registry they are
// called on and no other.
func NewNode(parent *Metrics) *Metrics { return &Metrics{parent: parent} }

// Counter returns the handle of the named counter, making it (at 0, here
// and in every ancestor) if needed; Snapshot lists it from then on. Making
// one takes the parent's lock inside this registry's: registries form a
// tree, locked child before parent.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters == nil {
		m.counters = make(map[string]*Counter, counterBlock)
	}
	c, ok := m.counters[name]
	if !ok {
		if len(m.free) == 0 {
			m.free = make([]Counter, counterBlock)
		}
		c, m.free = &m.free[0], m.free[1:]
		if m.parent != nil {
			c.up = m.parent.Counter(name)
		}
		m.counters[name] = c
	}
	return c
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) { m.Counter(name).Add(delta) }

// Inc increments the named counter by one.
func (m *Metrics) Inc(name string) { m.Counter(name).Inc() }

// Set stores an absolute value (gauge semantics).
func (m *Metrics) Set(name string, v int64) { m.Counter(name).Set(v) }

// Get returns the current value of the named counter (0 if absent).
func (m *Metrics) Get(name string) int64 {
	m.mu.Lock()
	c, ok := m.counters[name]
	m.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Load()
}

// Snapshot returns a copy of all counters.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for k, c := range m.counters {
		out[k] = c.Load()
	}
	return out
}

// Reset zeroes every counter.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.counters {
		c.v.Store(0)
	}
}

// Diff returns per-counter deltas of the current values against an earlier
// snapshot. Counters absent from the snapshot diff against zero.
func (m *Metrics) Diff(prev map[string]int64) map[string]int64 {
	cur := m.Snapshot()
	out := make(map[string]int64, len(cur))
	for k, v := range cur {
		out[k] = v - prev[k]
	}
	return out
}

// String renders the counters sorted by name, for logs and debugging.
func (m *Metrics) String() string {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}

// Conventional counter names used across the repository. Keeping them here
// avoids typo-divergence between producers and the harness.
const (
	CtrMsgsSent       = "net.msgs_sent"
	CtrMsgsDropped    = "net.msgs_dropped"
	CtrBytesSent      = "net.bytes_sent"
	CtrMulticasts     = "net.multicasts"
	CtrMulticastRecvs = "net.multicast_recvs"
	CtrUnicasts       = "net.unicasts"
	CtrRetries        = "net.retries"
	CtrCorruptFrames  = "net.corrupt_frames"
	CtrDedupDrops     = "net.dedup_drops"

	// Fault-injection counters (simulated network chaos knobs).
	CtrChaosDups     = "chaos.dups"
	CtrChaosReorders = "chaos.reorders"
	CtrChaosCorrupts = "chaos.corrupts"

	CtrOpsOut       = "ops.out"
	CtrOpsEval      = "ops.eval"
	CtrOpsRd        = "ops.rd"
	CtrOpsRdp       = "ops.rdp"
	CtrOpsIn        = "ops.in"
	CtrOpsInp       = "ops.inp"
	CtrOpsSatisfied = "ops.satisfied"
	CtrOpsEmpty     = "ops.empty"
	CtrOpsExpired   = "ops.expired"
	CtrOpsRemoteHit = "ops.remote_hit"
	CtrOpsLocalHit  = "ops.local_hit"

	CtrDiscoverRounds = "disc.rounds"
	CtrListEvictions  = "disc.list_evictions"
	CtrSuspicions     = "disc.suspicions"
	CtrSuspectSkips   = "disc.suspect_skips"
	CtrGoodbyes       = "disc.goodbyes"

	// Gray-failure counters (DESIGN.md §11). Demotion re-ranks a peer that
	// is alive but sustaining outlier latency; it is distinct from the
	// suspicion breaker (demoted peers still serve, they just stop being
	// first contact). Peer-degraded marks self-reported degradation learned
	// from announce frames; promote-holds count found replies whose rise in
	// the responder list was withheld because the replier was demoted or
	// suspected.
	CtrDemotions      = "disc.demotions"
	CtrDemoteRestores = "disc.demote_restores"
	CtrSlowStrikes    = "disc.slow_strikes"
	CtrPeerDegraded   = "disc.peer_degraded"
	CtrPromoteHolds   = "disc.promote_holds"

	// Hedged-lookup counters: hedges fired when a blocking op's first
	// contact outlived the adaptive hedge delay, wins settled by a hedged
	// contact, and hedges suppressed by a governor busy reply.
	CtrHedges          = "ops.hedges"
	CtrHedgeWins       = "ops.hedge_wins"
	CtrHedgeSuppressed = "ops.hedge_suppressed"

	// CtrGovQueueStalls counts queue-delay probe readings at or above the
	// degrade threshold — the serve-side slow-node signal behind
	// self-reported degradation.
	CtrGovQueueStalls = "gov.queue_stalls"

	// Visibility event-stream counters (responder-list joins/leaves and
	// subscriber-buffer overflow drops) plus the mobility machinery built
	// on them: in-flight blocking ops re-armed toward newly visible peers,
	// and orphaned serve-side waits/holds swept after their requester
	// stayed unreachable past the suspicion window.
	CtrVisJoins      = "disc.vis_joins"
	CtrVisLeaves     = "disc.vis_leaves"
	CtrVisEventDrops = "disc.vis_event_drops"
	CtrRearms        = "ops.rearms"
	CtrOrphanWaits   = "serve.orphan_waits"
	CtrOrphanHolds   = "serve.orphan_holds"
	CtrOrphanProbes  = "serve.orphan_probes"
	// Which deadline fired: a contact's reply wait ran out, a TAccept was
	// retransmitted for want of its ack, a hold's grace passed with neither
	// accept nor release. net.retries and store.tuples_reinstated lump
	// these with other causes; a stall that waits one out names it here.
	CtrContactTimeouts   = "ops.contact_timeouts"
	CtrAcceptRetransmits = "ops.accept_retransmits"
	CtrHoldGraceExpired  = "serve.hold_grace_expired"
	// CtrStaleDrops counts frames the simulated network dropped because
	// their visibility edge vanished while they were in flight (radio
	// propagation: no edge at delivery time, no delivery).
	CtrStaleDrops = "net.stale_drops"

	// Socket-level loss accounting for the real-network transport: frames
	// abandoned after send retries were exhausted, read-side frames lost to
	// I/O errors or malformed prefixes, and inbox-full drops. memnet's
	// stale-drop counter plays the same role for the simulated network.
	CtrSendErrors    = "net.send_errors"
	CtrReadErrors    = "net.read_errors"
	CtrInboxOverflow = "net.inbox_overflow"
	// CtrIOTimeouts counts unicast writes and dials that ran out their
	// deadline, whether or not a redial then delivered the batch.
	CtrIOTimeouts = "net.io_timeouts"

	// Batched wire-path counters (DESIGN.md §12): writes that carried a
	// multi-frame batch, and frames that travelled inside such batches.
	CtrBatchFlushes  = "net.batch_flushes"
	CtrBatchedFrames = "net.batched_frames"
	// CtrAcksCoalesced is never counted: no ack covers another's op ID.
	// The name stays only because the frozen benchmark module reads it.
	CtrAcksCoalesced = "net.acks_coalesced"

	// CtrChaosLimped counts frames the simulated network delayed because a
	// limp-mode ramp (gray-failure injection) was active on their path.
	CtrChaosLimped = "chaos.limped"

	// Replication counters (DESIGN.md §13): write-through replicates sent
	// by an origin, destructive takes served from a replica store after
	// the primary was proven dead, repair replicates sent by the
	// anti-entropy sweeper, replicate frames refused because their
	// identity was fenced by a failover take, and reads answered from a
	// replica copy rather than the authoritative holder.
	CtrReplWrites        = "repl.writes"
	CtrReplFailoverTakes = "repl.failover_takes"
	CtrReplRepairs       = "repl.repairs"
	CtrReplFencedHolds   = "repl.fenced_holds"
	CtrReplStaleReads    = "repl.stale_reads"
	// Write-through acks that came back explicitly NOT-OK (the backup
	// refused the copy) versus targets that never acked before the
	// write-through window closed. A refusal settles the write
	// immediately — a crashed backup sends nothing and lands in the
	// unacked count instead.
	CtrReplWriteRefused = "repl.write_refused"
	CtrReplWriteUnacked = "repl.write_unacked"

	// CtrBelowFloor counts announces whose capability set lacks a bit of
	// the wire floor (wire.CapsCurrent): their senders are not listed
	// (DESIGN.md §14).
	CtrBelowFloor = "discovery.below_floor"
	// CtrCapsBaselinePeers is never set: no listed peer is below the wire
	// floor. The name stays only because the frozen benchmark module
	// reads it.
	CtrCapsBaselinePeers = "caps.baseline_peers"

	// Write-ahead log counters (space/persist durability path).
	CtrWALAppends       = "wal.appends"
	CtrWALSyncs         = "wal.syncs"
	CtrWALCompactions   = "wal.compactions"
	CtrWALCompactErrors = "wal.compact_errors"
	CtrWALFailures      = "wal.failures"
	CtrWALReplayed      = "wal.replayed"
	CtrWALSkipped       = "wal.skipped"
	CtrWALTornBytes     = "wal.torn_bytes"
	// CtrWALStalls counts fsyncs that exceeded the configured stall
	// threshold — the slow-disk signal behind self-reported degradation.
	CtrWALStalls = "wal.stalls"

	CtrTuplesStored     = "store.tuples_stored"
	CtrTuplesTaken      = "store.tuples_taken"
	CtrTuplesReclaimed  = "store.tuples_reclaimed"
	CtrTuplesReinstated = "store.tuples_reinstated"

	// Governor counters (serve-path admission control, DESIGN.md §9).
	// Sheds are split by the class refused — the shedding order (probes
	// before waits before outs) is observable straight from the counters.
	CtrGovShedProbes   = "gov.shed_probes"
	CtrGovShedWaits    = "gov.shed_waits"
	CtrGovShedOuts     = "gov.shed_outs"
	CtrGovQuotaSheds   = "gov.quota_sheds"
	CtrGovQueueSheds   = "gov.queue_sheds"
	CtrGovShrinks      = "gov.shrinks"
	CtrGovShrunkBytes  = "gov.shrunk_bytes"
	CtrGovRevokes      = "gov.revokes"
	CtrGovClamps       = "gov.grant_clamps"
	CtrGovDeadlineCuts = "gov.deadline_cuts"
	CtrBusyReceived    = "gov.busy_received"
	// CtrGovQueued counts serve frames queued for the worker pool, queue
	// sheds included. Only a space that may block has a pool: on one
	// that never blocks every admitted frame is served on the receive
	// loop and this stays 0.
	CtrGovQueued = "gov.queued"
	// CtrPanics counts recovered panics on serve/transport goroutines; a
	// poisoned frame degrades one op, never the node.
	CtrPanics = "core.panics"

	CtrEngagements    = "fed.engagements"
	CtrEngageStallsNs = "fed.engage_stall_ns"
	CtrReplicaMsgs    = "repl.msgs"
	CtrFloodMsgs      = "flood.msgs"
)
