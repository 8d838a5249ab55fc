package core

import (
	"tiamat/trace"
	"tiamat/wire"
)

// This file implements the instance's reaction to a changing world
// (DESIGN.md §10): the per-instance jitter source, the Mobility() view of
// the node's counters, and the orphan sweep that reconciles serve-side
// state stranded by a partition.
//
// The outbound half of mobility — re-arming in-flight blocking operations
// when a peer becomes visible — lives in propagate (ops.go), wired to the
// responder list's visibility event stream.

// MobilityReport snapshots the mobility machinery's activity: blocking
// operations re-armed toward newly visible peers, orphaned serve-side
// waits/holds swept after their requester stayed unreachable past the
// suspicion window, reachability probes sent, and the responder list's
// visibility churn.
type MobilityReport struct {
	Rearms       uint64 // in-flight blocking ops re-armed on a join event
	OrphanWaits  uint64 // served waits stopped because the requester vanished
	OrphanHolds  uint64 // held tuples reinstated because the requester vanished
	OrphanProbes uint64 // reachability probes sent by the sweeper
	VisJoins     uint64 // responder-list join events
	VisLeaves    uint64 // responder-list leave events
}

// Mobility snapshots the instance's mobility activity, for the drain
// report and experiments.
func (i *Instance) Mobility() MobilityReport {
	return MobilityReport{
		Rearms:       i.counted(trace.CtrRearms),
		OrphanWaits:  i.counted(trace.CtrOrphanWaits),
		OrphanHolds:  i.counted(trace.CtrOrphanHolds),
		OrphanProbes: i.counted(trace.CtrOrphanProbes),
		VisJoins:     i.counted(trace.CtrVisJoins),
		VisLeaves:    i.counted(trace.CtrVisLeaves),
	}
}

// sweepOrphans is the orphan sweep's pass, every orphan sweep period: a
// partition must not strand held tuples and served waiters until their
// lease TTL when the requester is demonstrably gone. It probes every peer
// we are currently serving (a registered blocking wait or a pending hold)
// with a lightweight unsolicited announce. A peer whose probe fails with
// an unreachable error becomes suspect; one that stays unreachable for a
// full orphan grace is reaped: its waits are stopped and its holds
// reinstated, exactly as if it had said goodbye.
//
// Reaping a hold early is safe under symmetric visibility: the requester
// abandons its accept retry loop on the first unreachable send, and the
// simulated network drops frames whose edge vanished in flight, so once
// both sides have seen the partition no late accept can arrive. On
// transports whose sends cannot fail fast (plain UDP), probes never
// report unreachable and the sweep stays inert — the hold grace deadline
// and lease TTL remain the backstop, same as before this sweep existed.
func (i *Instance) sweepOrphans() {
	defer i.recoverPanic("sweep")
	if i.stopping() {
		return
	}
	now := i.clk.Now()
	i.mu.Lock()
	peers := make(map[wire.Addr]bool)
	for k, e := range i.requests {
		if e.wait != nil {
			peers[k.from] = true
		}
	}
	for _, ph := range i.holds {
		peers[ph.key.from] = true
	}
	// Suspicion only outlives a sweep while there is still something to
	// reap; a peer that settled everything starts fresh next time.
	for a := range i.suspect {
		if !peers[a] {
			delete(i.suspect, a)
		}
	}
	i.mu.Unlock()

	for a := range peers {
		if a == i.Addr() {
			continue
		}
		i.ctr.orphanProbes.Inc()
		// The probe is a plain unsolicited announce, which peers already
		// treat as useful knowledge (handleAnnounce). It carries our caps
		// like every announce, without which it would list nobody.
		err := i.send(a, i.announce(0))
		i.mu.Lock()
		if err == nil {
			delete(i.suspect, a)
			i.mu.Unlock()
			continue
		}
		first, suspected := i.suspect[a]
		if !suspected {
			i.suspect[a] = now
			i.mu.Unlock()
			continue
		}
		expired := now.Sub(first) >= i.tm.orphanGrace
		if expired {
			delete(i.suspect, a)
		}
		i.mu.Unlock()
		if expired {
			i.reapOrphan(a)
		}
	}
}

// reapOrphan releases everything served for a peer that stayed
// unreachable past the suspicion window: the goodbye it never got to
// send.
func (i *Instance) reapOrphan(peer wire.Addr) {
	waits, holds := i.releasePeer(peer)
	i.ctr.orphanWaits.Add(int64(waits))
	i.ctr.orphanHolds.Add(int64(holds))
}

// seedRetryJitter initialises the retry-jitter source from the configured
// seed, or derives one from the instance address (FNV-1a) so distinct
// nodes jitter differently while a given topology stays reproducible
// run-to-run.
func (i *Instance) seedRetryJitter() {
	seed := i.cfg.RetrySeed
	if seed == 0 {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		for _, c := range []byte(i.Addr()) {
			h ^= uint64(c)
			h *= prime64
		}
		seed = h
	}
	i.rnd.Seed(seed)
}
