package harness

// C5 is the replica-availability soak: a cluster with leased replica
// sets (R=2) where every tuple-seeding node is killed — one of them in
// the middle of seeding — while the surviving nodes race to collect the
// tokens with blocking takes. It checks the replication model of
// DESIGN.md §13 end to end: the take contract (ledger.go — every
// acknowledged token is taken despite its origin dying, and failover takes
// and adoption repair never duplicate one), replica stores drain after
// consumption (invalidation and
// fencing converge), and the run leaks no goroutines.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/tuple"
)

// C5Replica runs the node-kill soak and asserts its acceptance
// invariants, returning an error (not just a table) when one is broken.
func C5Replica(scale Scale) (*Table, error) {
	nodes, victims, tokens := 6, 2, 30
	if scale == Full {
		nodes, victims, tokens = 8, 3, 90
	}
	const (
		replicateBound = 3 * time.Second // write-through must place a copy within this
		drainBound     = 8 * time.Second // all survivable tokens collected within this
	)

	leaked := goroutineBaseline()
	l := newLedger("c5")

	c, err := newCluster(clusterOpts{
		n: nodes,
		mutate: func(idx int, cfg *core.Config) {
			soakTimers(idx, cfg)
			cfg.Replicas = 2
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.net.ConnectAll()

	// The first `victims` instances seed tokens and die; the rest only
	// collect and live to the end — so a token's copies land on nodes
	// that outlive its origin (victims never learn of each other: only
	// the collectors' blocking takes drive discovery here).
	collectors := c.inst[victims:]
	for _, inst := range collectors {
		l.collect(inst)
	}
	defer l.stopCollectors()

	// Discovery bootstrap: each victim probes every collector directly —
	// the not-found replies seed its responder list with exactly the
	// collector set, which is what the ring places copies on. (Victims
	// deliberately learn nothing of each other.)
	probeTerms := lease.Flexible(lease.Terms{Duration: time.Minute, MaxRemotes: nodes * 4})
	probe := tuple.Tmpl(tuple.String("c5-probe"))
	for vi := 0; vi < victims; vi++ {
		inst := c.inst[vi]
		deadline := time.Now().Add(replicateBound)
		for len(inst.ResponderList()) < len(collectors) {
			for ci := victims; ci < nodes; ci++ {
				_, _, _ = inst.RdpAt(context.Background(), addr(ci), probe, probeTerms)
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("C5: victim never discovered the collectors (%d/%d)",
					len(inst.ResponderList()), len(collectors))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Hour-long out leases: nothing may vanish by expiry, so any loss the
	// contract catches is real. An out raced by its node's kill may
	// legitimately return ErrClosed; the ledger exempts it from the loss
	// clause only.
	outTerms := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16, MaxRemotes: 64})
	perVictim := tokens / victims
	next := int64(0)
	for vi := 0; vi < victims; vi++ {
		victim := c.inst[vi]
		midKill := vi == victims-1 // the last victim dies mid-seeding
		var killed sync.WaitGroup
		for s := 0; s < perVictim; s++ {
			id := next
			next++
			if midKill && s == perVictim/2 {
				// Kill concurrently with the remaining outs: write-through
				// and teardown race, which is the window the write-through
				// ack wait exists for.
				killed.Add(1)
				l.fault("kill %s, mid-seeding", victim.Addr())
				go func() {
					defer killed.Done()
					victim.Close()
				}()
			}
			if err := l.out(victim, id, outTerms); err != nil && !errors.Is(err, core.ErrClosed) {
				return nil, fmt.Errorf("C5: seeding token %d: %w", id, err)
			}
		}
		killed.Wait()

		// Convergence wait before the kill: the spaced-kill discipline
		// that makes sequential node loss survivable at R=2.
		if !midKill {
			if err := l.awaitReplicated(victim, next-int64(perVictim), next, collectors, replicateBound); err != nil {
				return nil, fmt.Errorf("C5: %w", err)
			}
			l.fault("kill %s", victim.Addr())
			victim.Close()
		}
	}

	// Drain: every acknowledged token must be taken even though every
	// origin is dead — failover takes, local last-survivor serves, and
	// adoption repair between collectors do the work now.
	drain := l.drain(drainBound)

	// Require the replica stores to drain for every taken token: a
	// consumed tuple's copies must be invalidated or fenced away, not
	// linger until lease expiry. (A token whose out raced the mid-seeding
	// kill into ErrClosed may sit untaken in the replica stores — that is
	// availability working, not a leak.)
	var lingering []int64
	for wait := time.Now().Add(2 * time.Second); ; {
		lingering = lingering[:0]
		for id, f := range l.fates() {
			for _, inst := range collectors {
				if f.takes > 0 && inst.ReplicaCopies(l.one(id)) > 0 {
					lingering = append(lingering, id)
					break
				}
			}
		}
		if len(lingering) == 0 || time.Now().After(wait) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	l.sweep(collectors)
	if err := l.check(); err != nil {
		return nil, fmt.Errorf("C5: %w", err)
	}
	if len(lingering) > 0 {
		sortIDs(lingering)
		return nil, fmt.Errorf("C5 invariant: replica copies of %d consumed tokens never drained\n%s",
			len(lingering), l.timelines(lingering))
	}

	var rep core.ReplicationReport
	for _, inst := range c.inst {
		r := inst.Replication()
		rep.Writes += r.Writes
		rep.FailoverTakes += r.FailoverTakes
		rep.Repairs += r.Repairs
		rep.FencedHolds += r.FencedHolds
		rep.StaleReads += r.StaleReads
	}

	c.close()
	if err := leaked(); err != nil {
		return nil, fmt.Errorf("C5: %w", err)
	}

	seeded, collected := l.tally()
	t := &Table{
		ID:    "C5",
		Title: "replica availability soak: every origin killed (one mid-seeding), failover takes + repair",
		Columns: []string{"nodes", "killed", "seeded", "collected", "drain after kills",
			"repl writes", "failover takes", "repairs", "fenced holds", "stale reads"},
	}
	t.AddRow(fmtI(int64(nodes)), fmtI(int64(victims)), fmtI(int64(seeded)), fmtI(int64(collected)),
		fmtD(drain),
		fmtI(int64(rep.Writes)), fmtI(int64(rep.FailoverTakes)), fmtI(int64(rep.Repairs)),
		fmtI(int64(rep.FencedHolds)), fmtI(int64(rep.StaleReads)))
	t.AddNote("contract held across %d origin kills: all %d acknowledged tokens taken once, none resident after its take; replica stores drained; no goroutine leaks",
		victims, seeded)
	t.AddNote("%d retransmissions, %d duplicate frames suppressed, %d replicate frames",
		c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops), c.met.Get(trace.CtrReplicaMsgs))
	chaosSummary(t, c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops))
	return t, nil
}
