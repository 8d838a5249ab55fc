package harness

// C6 is the rolling-restart soak: a replicating cluster (R=2) in which
// every node in turn is killed and restarted at the same address, a new
// life of the node, while every node collects tokens with blocking takes.
// Before its kill a node seeds tokens that its own collector does not
// take, so the ones nobody took at once survive only as replica copies,
// and the node comes back once they are taken. (Back sooner, its new life
// answers the probe that proves the origin dead, so no copy is served by
// failover and the tokens wait out their leases: ROADMAP item 8.)
// It asserts:
//
//   - the take contract (ledger.go) across the whole run, kills and
//     restarts included;
//   - replication engages: a node whose seeded tokens stayed stored
//     wrote them through to a backup, and each is copied off it before
//     it dies;
//   - every restarted node is listed again by every live peer;
//   - no frame fails decode on the simulated wire;
//   - no goroutine leaks.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
)

// C6RollingRestart runs the rolling-restart soak and asserts its
// acceptance invariants, returning an error (not just a table) when one
// is broken.
func C6RollingRestart(scale Scale) (*Table, error) {
	nodes, perNode := 4, 3
	if scale == Full {
		nodes, perNode = 8, 8
	}
	const (
		rejoinBound    = 5 * time.Second // a restarted node listed by every live peer, and it by them
		replicateBound = 3 * time.Second // seeded tokens copied off their origin
		settleBound    = 5 * time.Second // a dead node's tokens taken from their copies
		drainBound     = 8 * time.Second // all tokens collected after the last restart
	)

	leaked := goroutineBaseline()
	l := newLedger("c6")

	mutate := func(idx int, cfg *core.Config) {
		soakTimers(idx, cfg)
		cfg.Replicas = 2
	}
	c, err := newCluster(clusterOpts{n: nodes, mutate: mutate})
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.net.ConnectAll()

	// listed reports whether every live node lists every other one.
	listed := func() bool {
		for _, a := range c.inst {
			for _, b := range c.inst {
				if a != b && !slices.Contains(a.ResponderList(), b.Addr()) {
					return false
				}
			}
		}
		return true
	}
	// join runs discovery rounds until every live node lists every other.
	join := func(bound time.Duration) (time.Duration, error) {
		start := time.Now()
		for !listed() {
			if time.Since(start) > bound {
				return 0, fmt.Errorf("C6: the cluster's responder lists never converged within %v", bound)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			for _, inst := range c.inst {
				_, _ = inst.Spaces(ctx)
			}
			cancel()
		}
		return time.Since(start), nil
	}
	if _, err := join(rejoinBound); err != nil {
		return nil, err
	}

	stops := make([]context.CancelFunc, nodes)
	for idx, inst := range c.inst {
		stops[idx] = l.collect(inst)
	}
	defer l.stopCollectors()

	// Hour-long out leases: nothing may vanish by expiry, so any loss the
	// contract catches is real. An out that raced a kill into ErrClosed is
	// exempt from the loss clause only.
	outTerms := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16, MaxRemotes: 64})
	next := int64(0)
	var stored int
	var rejoin time.Duration
	for idx := 0; idx < nodes; idx++ {
		victim := c.inst[idx]

		// The victim stops taking, then seeds: what no other node's parked
		// take is handed at the Out stays stored, and is written through.
		stops[idx]()
		first := next
		writes := victim.Replication().Writes
		kept := 0
		for s := 0; s < perNode; s++ {
			id := next
			next++
			err := l.out(victim, id, outTerms)
			if err != nil && !errors.Is(err, core.ErrClosed) {
				return nil, fmt.Errorf("C6: seeding token %d: %w", id, err)
			}
			if _, ok := victim.LocalSpace().Rdp(l.one(id)); err == nil && ok {
				kept++
			}
		}
		if kept > 0 && victim.Replication().Writes == writes {
			return nil, fmt.Errorf("C6 invariant: %s wrote none of the %d seeded tokens that stayed stored through to a backup", victim.Addr(), kept)
		}
		stored += kept
		if err := l.awaitReplicated(victim, first, next, c.inst, replicateBound); err != nil {
			return nil, fmt.Errorf("C6: %w", err)
		}

		l.fault("kill %s", victim.Addr())
		victim.Close()
		// Every token is taken before the restart, so the next kill loses
		// no token's last copy: the spaced-kill discipline of C5.
		if err := awaitTaken(l, settleBound); err != nil {
			return nil, fmt.Errorf("C6: while %s was down: %w", victim.Addr(), err)
		}
		ep, err := c.net.Attach(victim.Addr())
		if err != nil {
			return nil, err
		}
		c.net.ConnectAll() // the fresh endpoint needs its visibility edges
		cfg := core.Config{Endpoint: ep, Clock: c.clk, Metrics: c.met}
		mutate(idx, &cfg)
		l.fault("restart %s", victim.Addr())
		restarted, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		c.inst[idx] = restarted // closed with the cluster on every path
		took, err := join(rejoinBound)
		if err != nil {
			return nil, fmt.Errorf("%w after restarting %s", err, victim.Addr())
		}
		rejoin = max(rejoin, took)
		stops[idx] = l.collect(restarted)
	}

	// Drain: every acknowledged token must be taken, once, and none left
	// resident.
	drain := l.drain(drainBound)
	l.sweep(c.inst)
	if err := l.check(); err != nil {
		return nil, fmt.Errorf("C6: %w", err)
	}
	if corrupt := c.met.Get(trace.CtrCorruptFrames); corrupt != 0 {
		return nil, fmt.Errorf("C6 invariant: %d frames failed decode on the simulated wire", corrupt)
	}

	c.close()
	if err := leaked(); err != nil {
		return nil, fmt.Errorf("C6: %w", err)
	}

	t := &Table{
		ID:    "C6",
		Title: "rolling-restart soak: every node killed and restarted in turn at its address, R=2",
		Columns: []string{"nodes", "restarts", "seeded", "collected", "stored at out", "rejoin (max)", "drain",
			"repl writes", "failover takes", "repairs"},
	}
	seeded, collected := l.tally()
	t.AddRow(fmtI(int64(nodes)), fmtI(int64(nodes)), fmtI(int64(seeded)), fmtI(int64(collected)),
		fmtI(int64(stored)), fmtD(rejoin), fmtD(drain),
		fmtI(c.met.Get(trace.CtrReplWrites)), fmtI(c.met.Get(trace.CtrReplFailoverTakes)), fmtI(c.met.Get(trace.CtrReplRepairs)))
	t.AddNote("contract held across %d kill-and-restart rounds: all %d acknowledged tokens taken once, none resident after its take; %d were stored at their origin when their out returned, each copied off it before its kill",
		nodes, seeded, stored)
	chaosSummary(t, c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops))
	return t, nil
}

// awaitTaken waits up to bound until every acknowledged token is taken.
func awaitTaken(l *ledger, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		var missing []int64
		for v, f := range l.fates() {
			if f.acked && f.takes == 0 {
				missing = append(missing, v)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			sortIDs(missing)
			return fmt.Errorf("%d acknowledged tokens untaken after %v\n%s", len(missing), bound, l.timelines(missing))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
