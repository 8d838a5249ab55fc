package harness

// C4 is the gray-failure soak (DESIGN.md §11): a healthy cluster
// establishes a blocking-lookup latency baseline, then one node's links
// enter limp mode — nothing drops, everything it touches just gets
// slower. The tentpole claim is that latency-aware health plus hedged
// lookups keep the tail bounded: p99 stays within a small factor of the
// healthy baseline, the median is untouched, destructive takes stay
// exactly-once under hedge racing, and the hedge budget is respected.
// An ablation pass with Config.DisableHedge re-runs the limped scenario
// and must demonstrably violate the p99 bound — the walk then advances
// only by retry exhaustion, paying a full timeout ladder per silent
// responder.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/tuple"
)

func c4NoMatch() tuple.Template { return tuple.Tmpl(tuple.String("c4-none"), tuple.Any()) }

// C4Gray runs the gray-failure soak and asserts its acceptance
// invariants.
func C4Gray(scale Scale) (*Table, error) {
	nodes := 6
	roundsA, roundsB, roundsC := 40, 40, 12
	if scale == Full {
		roundsA, roundsB, roundsC = 120, 120, 30
	}
	const limperIdx = 5
	// Extra is chosen so the limper's replies still arrive inside the
	// retry window: the gray zone where the node is slow but never
	// "down", which timeout-based suspicion alone cannot see.
	limp := memnet.Limp{Extra: 60 * time.Millisecond, Ramp: 300 * time.Millisecond}

	leaked := goroutineBaseline()
	l := newLedger("c4")

	build := func(disableHedge bool) (*cluster, error) {
		return newCluster(clusterOpts{
			n:       nodes,
			netOpts: []memnet.Option{memnet.WithLatency(2 * time.Millisecond)},
			mutate: func(idx int, cfg *core.Config) {
				cfg.ContactTimeout = 40 * time.Millisecond
				cfg.RetrySeed = uint64(idx) + 1
				cfg.DisableHedge = disableHedge
			},
		})
	}

	// warm populates every responder list deterministically (announce
	// replies observe the announcer), so blocking walks use cached
	// contact order instead of cold multicasts.
	warm := func(c *cluster) error {
		c.net.ConnectAll()
		for _, inst := range c.inst {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := inst.Spaces(ctx)
			cancel()
			if err != nil {
				return err
			}
		}
		return nil
	}

	// measure runs rounds of the workload: seed one unique token at a
	// healthy holder, then a different healthy requester takes it with a
	// blocking in — the latency is the walk-to-holder time. Tokens live
	// only at healthy nodes: hedging can route around a slow contact,
	// not a slow sole data holder. Each take's template matches its one
	// token: a duplicate could only show as that token resident after its
	// take, and a take of any other token would be that token's second.
	var tokenSeq int64
	outTerms := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16})
	inTerms := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 64})
	measure := func(c *cluster, rounds int) ([]time.Duration, error) {
		var healthy []int
		for i := 0; i < nodes; i++ {
			if i != limperIdx {
				healthy = append(healthy, i)
			}
		}
		lats := make([]time.Duration, 0, rounds)
		for k := 0; k < rounds; k++ {
			tokenSeq++
			v := tokenSeq
			holder := c.inst[healthy[k%len(healthy)]]
			requester := c.inst[healthy[(k+1)%len(healthy)]]
			if err := l.out(holder, v, outTerms); err != nil {
				return nil, fmt.Errorf("C4: seeding token %d: %w", v, err)
			}
			start := time.Now()
			if _, err := l.in(context.Background(), requester, l.one(v), inTerms); err != nil {
				return nil, fmt.Errorf("C4: blocking in for token %d: %w", v, err)
			}
			lats = append(lats, time.Since(start))
		}
		return lats, nil
	}

	// --- phases A (healthy baseline) and B (one limping node) ----------
	c1, err := build(false)
	if err != nil {
		return nil, err
	}
	defer c1.close()
	if err := warm(c1); err != nil {
		return nil, err
	}

	latsA, err := measure(c1, roundsA)
	if err != nil {
		return nil, err
	}

	c1.net.SetNodeLimp(addr(limperIdx), limp)
	l.fault("limp %s (+%v one-way)", addr(limperIdx), limp.Extra)
	// Background probe traffic gives the health layer measurable replies
	// from the limper (nonblocking not-found answers are prompt answers;
	// blocking responders are silent-by-protocol, so the workload alone
	// carries no timing signal for non-holders). Replies that needed
	// retransmissions become slow strikes (Karn's rule), which is what
	// demotes the limper.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		for probeCtx.Err() == nil {
			ctx, cancel := context.WithTimeout(probeCtx, 2*time.Second)
			_, _, _ = c1.inst[0].Rdp(ctx, c4NoMatch(),
				lease.Flexible(lease.Terms{Duration: 2 * time.Second, MaxRemotes: 64}))
			cancel()
		}
	}()
	time.Sleep(limp.Ramp) // let the limp reach full strength

	latsB, err := measure(c1, roundsB)
	if err != nil {
		stopProbes()
		<-probesDone
		return nil, err
	}
	// Give the probe loop time to accumulate the strike quota if the
	// measured rounds finished before the health verdict landed.
	for wait := time.Now().Add(3 * time.Second); time.Now().Before(wait); {
		if c1.met.Get(trace.CtrDemotions) >= 1 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	stopProbes()
	<-probesDone

	var hedges, hedgeWins, hedgeSuppressed uint64
	var hedgeDelays []string
	for _, inst := range c1.inst {
		g := inst.Gray()
		hedges += g.Hedges
		hedgeWins += g.HedgeWins
		hedgeSuppressed += g.HedgeSuppressed
		hedgeDelays = append(hedgeDelays, fmtD(g.HedgeDelay))
	}
	slowStrikes := c1.met.Get(trace.CtrSlowStrikes)
	demotions := c1.met.Get(trace.CtrDemotions)
	limped := c1.met.Get(trace.CtrChaosLimped)
	l.sweep(c1.inst)
	c1.close()

	// --- phase C: ablation — same limped scenario, hedging off ---------
	c2, err := build(true)
	if err != nil {
		return nil, err
	}
	defer c2.close()
	if err := warm(c2); err != nil {
		return nil, err
	}
	c2.net.SetNodeLimp(addr(limperIdx), limp)
	l.fault("limp %s (+%v one-way), hedging off", addr(limperIdx), limp.Extra)
	time.Sleep(limp.Ramp)
	latsC, err := measure(c2, roundsC)
	if err != nil {
		return nil, err
	}
	l.sweep(c2.inst)
	c2.close()

	p50A, p99A := percentile(latsA, 50), percentile(latsA, 99)
	p50B, p99B := percentile(latsB, 50), percentile(latsB, 99)
	p99C := percentile(latsC, 99)

	// The p99 bound: 3x the healthy tail, floored so microsecond-scale
	// healthy baselines don't make the bound meaninglessly tight.
	bound := 3 * p99A
	if floor := 80 * time.Millisecond; bound < floor {
		bound = floor
	}
	p50Bound := 3 * p50A
	if floor := 30 * time.Millisecond; p50Bound < floor {
		p50Bound = floor
	}

	t := &Table{
		ID:      "C4",
		Title:   "gray-failure soak: one limping node, hedged lookups + latency-aware health",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("nodes (1 limping)", fmtI(int64(nodes)))
	t.AddRow("rounds healthy/limped/ablation", fmt.Sprintf("%d/%d/%d", roundsA, roundsB, roundsC))
	t.AddRow("limp extra (one-way)", fmtD(limp.Extra))
	t.AddRow("healthy p50 / p99", fmt.Sprintf("%s / %s", fmtD(p50A), fmtD(p99A)))
	t.AddRow("limped p50 / p99", fmt.Sprintf("%s / %s", fmtD(p50B), fmtD(p99B)))
	t.AddRow("p99 bound (3x healthy, floored)", fmtD(bound))
	t.AddRow("ablation p99 (DisableHedge)", fmtD(p99C))
	t.AddRow("hedges fired / wins / suppressed", fmt.Sprintf("%d/%d/%d", hedges, hedgeWins, hedgeSuppressed))
	t.AddRow("hedge budget (ops x HedgeMax)", fmtI(int64((roundsA+roundsB)*2)))
	t.AddRow("hedge delay per node, limped", strings.Join(hedgeDelays, " "))
	t.AddRow("slow strikes / demotions", fmt.Sprintf("%d/%d", slowStrikes, demotions))
	t.AddRow("limped frames", fmtI(limped))

	// Acceptance invariants.
	if limped == 0 {
		return t, fmt.Errorf("C4: limp mode never slowed a frame; the injection is broken")
	}
	if err := l.check(); err != nil {
		return t, fmt.Errorf("C4: %w", err)
	}
	if p99B > bound {
		return t, fmt.Errorf("C4: limped p99 %v exceeds bound %v (healthy p99 %v); hedging failed to contain the tail", p99B, bound, p99A)
	}
	if p50B > p50Bound {
		return t, fmt.Errorf("C4: limped p50 %v vs healthy %v — the median must not feel one slow peer", p50B, p50A)
	}
	if hedges == 0 {
		return t, fmt.Errorf("C4: no hedges fired across %d blocking lookups; the hedge path never engaged", roundsA+roundsB)
	}
	if maxHedges := uint64((roundsA + roundsB) * 2); hedges > maxHedges {
		return t, fmt.Errorf("C4: %d hedges exceeds the per-op budget total %d", hedges, maxHedges)
	}
	if slowStrikes == 0 || demotions == 0 {
		return t, fmt.Errorf("C4: health layer never engaged (%d slow strikes, %d demotions); the limper went undetected", slowStrikes, demotions)
	}
	if p99C <= bound {
		return t, fmt.Errorf("C4: ablation p99 %v within bound %v — DisableHedge should demonstrably lose the tail", p99C, bound)
	}

	// Goroutine accounting across both clusters.
	if err := leaked(); err != nil {
		return t, fmt.Errorf("C4: %w", err)
	}

	t.AddNote("invariants held: limped p99 within %v of healthy, median untouched, hedges under budget, no goroutine leaks; contract held: every token taken once and none resident after its take", bound)
	t.AddNote("ablation: without hedging the same limped walk pays a retry-exhaustion ladder per silent responder (p99 %v vs bound %v)", p99C, bound)
	chaosSummary(t, c1.met.Get(trace.CtrRetries), c1.met.Get(trace.CtrDedupDrops))
	return t, nil
}
