package harness

// C2 is the overload-governance soak: one governed node, four greedy
// peers flooding it with blocking takes and stored outs, and one
// compliant peer doing modest probes throughout. It checks the overload
// model of DESIGN.md §9 end to end: the governed node's memory stays
// bounded, the compliant peer keeps getting timely answers, every shed
// is an explicit busy reply on the wire, and the lease ladder stops at
// shrink — no revocation fires while re-negotiation still works.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/tuple"
)

func c2Item(v int64) tuple.Tuple { return tuple.T(tuple.String("c2"), tuple.Int(v)) }
func c2Tmpl() tuple.Template     { return tuple.Tmpl(tuple.String("c2"), tuple.Any()) }

// c2NoMatch never matches anything in the space: greedy blocking takes
// park in the wait table until their budget lapses.
func c2NoMatch() tuple.Template { return tuple.Tmpl(tuple.String("c2-none"), tuple.Any()) }

func c2Fill(v int64) tuple.Tuple {
	return tuple.T(tuple.String("c2-fill"), tuple.Int(v), tuple.String(string(make([]byte, 1024))))
}

// c2Probes runs n sequential probes against the governed node and
// returns each response time. A busy refusal is a response: the
// governor's promise is timeliness, not success.
func c2Probes(i *core.Instance, target *core.Instance, n int, gap time.Duration) []time.Duration {
	lat := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		start := time.Now()
		_, _, _ = i.RdpAt(ctx, target.Addr(), c2Tmpl(), nil)
		lat = append(lat, time.Since(start))
		cancel()
		if gap > 0 {
			time.Sleep(gap)
		}
	}
	return lat
}

func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// C2Overload runs the overload soak and asserts its acceptance
// invariants, returning an error (not just a table) when one is broken.
func C2Overload(scale Scale) (*Table, error) {
	probes, floodFor := 200, 700*time.Millisecond
	if scale == Full {
		probes, floodFor = 500, 2*time.Second
	}
	const greedyPeers = 4
	const greedyWaiters = 4 // blocking-take goroutines per greedy peer

	// The governed node's caps are deliberately far below what the flood
	// asks for; RevokeCooldown is set past the run length so the ladder
	// must hold at shed/shrink (the revoke rung itself is pinned by
	// TestRevokeOnlyAfterShrinkExhausted in internal/core).
	gcfg := core.GovernorConfig{
		MaxPeerWaits:   3,
		MaxTotalWaits:  12,
		QueueDepth:     256,
		ShedWatermark:  0.7,
		RevokeCooldown: time.Hour,
	}
	c, err := newCluster(clusterOpts{
		n: 2 + greedyPeers,
		mutate: func(idx int, cfg *core.Config) {
			if idx == 0 {
				cfg.Governor = gcfg
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.net.ConnectAll()

	// One discovery round per instance settles membership and capability
	// knowledge up front, so the shed == busy-reply equality asserted
	// below starts from a converged cluster instead of racing the
	// first-contact capability probes (a frame shed before the probe's
	// announce lands goes out without the busy marker, exactly as it
	// would toward a pre-capability peer).
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	for _, inst := range c.inst {
		_, _ = inst.Spaces(sctx)
	}
	scancel()

	governed := c.inst[0]
	compliant := c.inst[1]
	greedy := c.inst[2:]

	// Stock the governed space so compliant probes have something to find.
	for v := int64(0); v < 8; v++ {
		if err := governed.Out(c2Item(v), nil); err != nil {
			return nil, err
		}
	}

	// Park slow evals on the governed node: each holds the default
	// worst-case byte promise while it runs — the promised-but-idle
	// slack the shrink rung exists to reclaim under pressure.
	evalDur := floodFor + 800*time.Millisecond
	governed.RegisterEval("c2-slow", func(ctx context.Context, _ tuple.Tuple) (tuple.Tuple, error) {
		select {
		case <-ctx.Done():
		case <-time.After(evalDur):
		}
		return tuple.T(tuple.String("c2-done")), nil
	})
	for k := int64(0); k < 3; k++ {
		if err := greedy[0].EvalAt(governed.Addr(), "c2-slow", tuple.T(tuple.Int(k)), nil); err != nil {
			return nil, err
		}
	}

	// Unloaded baseline.
	base := c2Probes(compliant, governed, probes, 0)

	// Flood: each greedy peer parks blocking takes (short requester
	// budgets, so the wait table churns instead of wedging) and streams
	// stored outs with fat-but-idle byte terms (shrinkable slack).
	heapBefore := heapNow()
	floodCtx, stopFlood := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var greedyOps int64
	for _, g := range greedy {
		for w := 0; w < greedyWaiters; w++ {
			wg.Add(1)
			go func(g *core.Instance) {
				defer wg.Done()
				for floodCtx.Err() == nil {
					ctx, cancel := context.WithTimeout(floodCtx, 120*time.Millisecond)
					_, _ = g.InAt(ctx, governed.Addr(), c2NoMatch(), nil)
					cancel()
					atomic.AddInt64(&greedyOps, 1)
				}
			}(g)
		}
		wg.Add(1)
		go func(g *core.Instance) {
			defer wg.Done()
			for v := int64(0); floodCtx.Err() == nil; v++ {
				r := lease.Flexible(lease.Terms{Duration: 200 * time.Millisecond, MaxBytes: 8 << 10})
				_ = g.OutAt(governed.Addr(), c2Fill(v), r)
				atomic.AddInt64(&greedyOps, 1)
				time.Sleep(2 * time.Millisecond)
			}
		}(g)
	}

	time.Sleep(100 * time.Millisecond) // let pressure build
	loaded := c2Probes(compliant, governed, probes, floodFor/time.Duration(probes*2))
	time.Sleep(floodFor / 2)
	stopFlood()
	wg.Wait()
	time.Sleep(150 * time.Millisecond) // let late replies land
	heapAfter := heapNow()

	rep := governed.Governor()
	busyRecv := c.met.Get(trace.CtrBusyReceived)
	basep99, loadp99 := percentile(base, 99), percentile(loaded, 99)

	t := &Table{
		ID:      "C2",
		Title:   "overload governance: admission control, shedding, deadline propagation",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("greedy ops issued", fmtI(atomic.LoadInt64(&greedyOps)))
	t.AddRow("serve frames queued", fmtI(int64(rep.Queued)))
	t.AddRow("sheds probes/waits/outs", fmt.Sprintf("%d/%d/%d", rep.ShedProbes, rep.ShedWaits, rep.ShedOuts))
	t.AddRow("sheds quota/queue", fmt.Sprintf("%d/%d", rep.QuotaSheds, rep.QueueSheds))
	t.AddRow("busy replies received", fmtI(busyRecv))
	t.AddRow("shrinks (bytes)", fmt.Sprintf("%d (%d)", rep.Shrinks, rep.ShrunkBytes))
	t.AddRow("grant clamps", fmtI(int64(rep.GrantClamps)))
	t.AddRow("deadline cuts", fmtI(int64(rep.DeadlineCuts)))
	t.AddRow("revocations", fmtI(int64(rep.Revokes)))
	t.AddRow("compliant p99 unloaded", fmtD(basep99))
	t.AddRow("compliant p99 under flood", fmtD(loadp99))
	t.AddRow("governed heap delta", fmt.Sprintf("%.1f MiB", float64(int64(heapAfter)-int64(heapBefore))/(1<<20)))

	// Acceptance invariants.
	if rep.Sheds() == 0 {
		return t, fmt.Errorf("C2: flood produced no sheds; the governor never engaged")
	}
	if rep.Revokes != 0 {
		return t, fmt.Errorf("C2: %d revocations fired; the ladder must hold at shed/shrink here", rep.Revokes)
	}
	if rep.Shrinks == 0 {
		return t, fmt.Errorf("C2: pressure never triggered a shrink sweep despite idle slack")
	}
	if chaosFaults == nil && busyRecv != int64(rep.Sheds()) {
		return t, fmt.Errorf("C2: %d sheds but %d busy replies observed; a shed was silent or a reply was fabricated", rep.Sheds(), busyRecv)
	}
	// Heap bound: caps on queue, waits, and per-peer bytes keep the
	// governed node's growth modest no matter how greedy the flood.
	if delta := int64(heapAfter) - int64(heapBefore); delta > 64<<20 {
		return t, fmt.Errorf("C2: governed heap grew %d bytes under flood; admission is not bounding memory", delta)
	}
	// Timeliness: the compliant peer's p99 stays within 3x its unloaded
	// baseline (floored to absorb scheduler noise at microsecond scales).
	bound := 3 * basep99
	if floor := 10 * time.Millisecond; bound < floor {
		bound = floor
	}
	if loadp99 > bound {
		return t, fmt.Errorf("C2: compliant p99 %v under flood exceeds bound %v (baseline %v)", loadp99, bound, basep99)
	}
	t.AddNote("every shed is an explicit busy wire reply (sheds == busy replies observed); revocation held in reserve while shrink reclaimed slack")
	t.AddNote("greedy budgets propagate: the governed node releases lapsed waits at the requester's deadline, so the wait table churns instead of wedging")
	if chaosFaults != nil {
		t.AddNote("chaos active: shed/busy equality not asserted (lossy wire)")
	}
	return t, nil
}
