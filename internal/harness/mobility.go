package harness

// C3 is the partition/mobility soak: a cluster under random link churn
// and repeated partition/heal cycles while every node races to collect a
// fixed set of unique tokens with blocking takes. It checks the mobility
// model of DESIGN.md §10 end to end: the take contract (ledger.go — holds
// reinstated across partition flaps never duplicate a take, and no token
// is lost), no blocked operation left unserved once holder and
// requester share a partition for a bounded window (join-event re-arming
// plus rediscovery must reach the holder), orphaned serve-side state is
// reconciled, and the run leaks no goroutines.

import (
	"fmt"
	"math/rand"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// C3Mobility runs the churn soak and asserts its acceptance invariants,
// returning an error (not just a table) when one is broken.
func C3Mobility(scale Scale) (*Table, error) {
	nodes, tokens, churnFor := 6, 40, 1200*time.Millisecond
	if scale == Full {
		nodes, tokens, churnFor = 8, 120, 4*time.Second
	}
	const healBound = 5 * time.Second

	leaked := goroutineBaseline()
	l := newLedger("c3")

	c, err := newCluster(clusterOpts{
		n: nodes,
		// Non-zero link latency keeps frames in flight long enough for a
		// visibility flip to catch them — the stale-drop path a real
		// radio fade exercises.
		netOpts: []memnet.Option{memnet.WithLatency(2 * time.Millisecond)},
		mutate:  soakTimers,
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.net.ConnectAll()

	// Tokens are seeded round-robin under hour-long out leases — nothing
	// may vanish by lease expiry, so any loss the invariants catch is
	// real. Seeding is staggered across the churn phase (see the chaos
	// loop below) so collection work stays live through every partition
	// and heal instead of finishing before the first flip.
	outTerms := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16})
	seeded := int64(0)
	seedNext := func() error {
		if seeded >= int64(tokens) {
			return nil
		}
		if err := l.out(c.inst[int(seeded)%nodes], seeded, outTerms); err != nil {
			return fmt.Errorf("C3: seeding token %d: %w", seeded, err)
		}
		seeded++
		return nil
	}

	for _, inst := range c.inst {
		l.collect(inst)
	}
	defer l.stopCollectors()

	// The chaos schedule: random symmetric link flips every tick, with
	// occasional wholesale partitions into two halves and heals. The rng
	// is seeded, so a failing run replays.
	rng := rand.New(rand.NewSource(7))
	ticks := int(churnFor / (25 * time.Millisecond))
	perTick := (tokens + ticks - 1) / ticks
	partitions := 0
	split := false
	for tick := 0; tick < ticks; tick++ {
		for s := 0; s < perTick; s++ {
			if err := seedNext(); err != nil {
				return nil, err
			}
		}
		c.net.Churn(2)
		// Partition residency averages ~400ms — longer than the orphan
		// grace (12 × soakContactTimeout), so sweeps have time to ripen
		// inside a split.
		if rng.Intn(16) == 0 {
			if split {
				c.net.ConnectAll()
				l.fault("heal")
			} else {
				perm := rng.Perm(nodes)
				var g1, g2 []wire.Addr
				for i, p := range perm {
					if i < nodes/2 {
						g1 = append(g1, addr(p))
					} else {
						g2 = append(g2, addr(p))
					}
				}
				c.net.Partition(g1, g2)
				l.fault("partition %v | %v", g1, g2)
				partitions++
			}
			split = !split
		}
		time.Sleep(25 * time.Millisecond)
	}
	for seeded < int64(tokens) {
		if err := seedNext(); err != nil {
			return nil, err
		}
	}

	// Heal. Every holder and requester now share one partition: nothing
	// may stay blocked beyond a bounded window.
	c.net.ConnectAll()
	l.fault("final heal")
	drain := l.drain(healBound)
	l.sweep(c.inst)
	if err := l.check(); err != nil {
		return nil, fmt.Errorf("C3: %w", err)
	}

	var mob core.MobilityReport
	for _, inst := range c.inst {
		m := inst.Mobility()
		mob.Rearms += m.Rearms
		mob.OrphanWaits += m.OrphanWaits
		mob.OrphanHolds += m.OrphanHolds
		mob.OrphanProbes += m.OrphanProbes
		mob.VisJoins += m.VisJoins
		mob.VisLeaves += m.VisLeaves
	}

	// The deferred close becomes a no-op on an already-closed cluster.
	c.close()
	if err := leaked(); err != nil {
		return nil, fmt.Errorf("C3: %w", err)
	}

	t := &Table{
		ID:    "C3",
		Title: "partition/mobility soak: random churn + partition/heal cycles, conservation + bounded re-serve",
		Columns: []string{"nodes", "tokens", "partitions", "drain after heal",
			"rearms", "orphan waits", "orphan holds", "vis joins", "vis leaves", "stale drops"},
	}
	t.AddRow(fmtI(int64(nodes)), fmtI(int64(tokens)), fmtI(int64(partitions)), fmtD(drain),
		fmtI(int64(mob.Rearms)), fmtI(int64(mob.OrphanWaits)), fmtI(int64(mob.OrphanHolds)),
		fmtI(int64(mob.VisJoins)), fmtI(int64(mob.VisLeaves)), fmtI(c.met.Get(trace.CtrStaleDrops)))
	t.AddNote("contract held across %d partition cycles: every token taken once, none resident after its take, all taken within %v of the final heal; no goroutine leaks",
		partitions, drain.Round(time.Millisecond))
	t.AddNote("%d retransmissions, %d duplicate frames suppressed, %d reachability probes",
		c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops), int64(mob.OrphanProbes))
	chaosSummary(t, c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops))
	return t, nil
}
