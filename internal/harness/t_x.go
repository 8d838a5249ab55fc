package harness

import (
	"fmt"
	"time"

	"tiamat/clock"
	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/monitor"
	"tiamat/routing"
	"tiamat/tuple"
	"tiamat/wire"
)

// T1LocalOps micro-benchmarks the six local-space operations (§3.1).
func T1LocalOps(scale Scale) (*Table, error) {
	preload, iters := 10000, 20000
	if scale == Quick {
		preload, iters = 1000, 2000
	}
	s := store.New()
	defer s.Close()
	for i := 0; i < preload; i++ {
		if _, err := s.Out(tuple.T(tuple.String("pre"), tuple.Int(int64(i))), time.Time{}); err != nil {
			return nil, err
		}
	}
	t := &Table{
		ID:      "T1",
		Title:   fmt.Sprintf("local tuple-space operation cost (%d resident tuples)", preload),
		Columns: []string{"operation", "ns/op"},
	}
	bench := func(name string, f func(i int)) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		t.AddRow(name, fmtI(time.Since(start).Nanoseconds()/int64(iters)))
	}
	probe := tuple.Tmpl(tuple.String("probe"), tuple.FormalInt())
	bench("out", func(i int) {
		_, _ = s.Out(tuple.T(tuple.String("probe"), tuple.Int(int64(i))), time.Time{})
	})
	bench("rdp (hit)", func(i int) { s.Rdp(probe) })
	bench("rdp (miss)", func(i int) { s.Rdp(tuple.Tmpl(tuple.String("absent"))) })
	bench("inp (hit)", func(i int) {
		if _, ok := s.Inp(probe); !ok {
			_, _ = s.Out(tuple.T(tuple.String("probe"), tuple.Int(int64(i))), time.Time{})
		}
	})
	// A blocking rd/in registers as a node's own does: Park, here through
	// Wait, whose sink accepts a take's hold at once and sends the tuple.
	bench("rd via Park (hit)", func(i int) {
		_, _ = s.Out(tuple.T(tuple.String("probe"), tuple.Int(int64(i))), time.Time{})
		<-s.Wait(probe, false).Chan()
	})
	bench("in via Park (hit)", func(i int) {
		_, _ = s.Out(tuple.T(tuple.String("probe"), tuple.Int(int64(i))), time.Time{})
		<-s.Wait(probe, true).Chan()
	})
	return t, nil
}

// T2LeaseNegotiation micro-benchmarks lease grant/cancel and the refusal
// path under pressure (§3.1.1).
func T2LeaseNegotiation(scale Scale) (*Table, error) {
	iters := 100000
	if scale == Quick {
		iters = 10000
	}
	t := &Table{
		ID:      "T2",
		Title:   "lease negotiation cost",
		Columns: []string{"path", "ns/op"},
	}
	m := lease.NewManager(lease.DefaultCapacity(), clock.Real{})
	defer m.Close()
	terms := lease.Terms{Duration: time.Second, MaxRemotes: 4, MaxBytes: 128}

	start := time.Now()
	for i := 0; i < iters; i++ {
		l, err := m.Grant(lease.OpRd, lease.Flexible(terms))
		if err != nil {
			return nil, err
		}
		l.Cancel()
	}
	t.AddRow("grant+cancel", fmtI(time.Since(start).Nanoseconds()/int64(iters)))

	start = time.Now()
	for i := 0; i < iters; i++ {
		l, err := m.Grant(lease.OpOut, lease.Flexible(terms))
		if err != nil {
			return nil, err
		}
		_ = l.ConsumeBytes(64)
		l.ShrinkBytes()
		l.Cancel()
	}
	t.AddRow("grant+consume+shrink+cancel", fmtI(time.Since(start).Nanoseconds()/int64(iters)))

	// Refusal under a saturated manager.
	full := lease.NewManager(lease.Capacity{MaxActive: 1, MaxDuration: time.Minute, MaxRemotes: 1, MaxBytes: 1, MaxTotalBytes: 1}, clock.Real{})
	defer full.Close()
	hold, err := full.Grant(lease.OpRd, lease.Flexible(terms))
	if err != nil {
		return nil, err
	}
	defer hold.Cancel()
	start = time.Now()
	for i := 0; i < iters; i++ {
		_, _ = full.Grant(lease.OpRd, lease.Flexible(terms))
	}
	t.AddRow("refusal (at capacity)", fmtI(time.Since(start).Nanoseconds()/int64(iters)))
	return t, nil
}

// X1Backbone exercises the §6 future-work extension: routing a tuple to
// an out-of-sight origin via a stable, well-connected backbone node.
func X1Backbone(scale Scale) (*Table, error) {
	deliveries := 20
	if scale == Quick {
		deliveries = 6
	}
	t := &Table{
		ID:      "X1",
		Title:   "backbone relay routing (§6 future work)",
		Columns: []string{"policy", "delivered to origin", "fell back locally"},
	}
	for _, useRelay := range []bool{false, true} {
		c, err := newCluster(clusterOpts{n: 3, mutate: func(i int, cfg *core.Config) {
			if useRelay {
				cfg.RoutePolicy = core.RouteRelay
			}
		}})
		if err != nil {
			return nil, err
		}
		// Topology: 0-1 and 1-2 only; node 1 is the backbone.
		c.net.SetVisible(addr(0), addr(1), true)
		c.net.SetVisible(addr(1), addr(2), true)
		if useRelay {
			// Select the backbone from observed social characteristics:
			// node 1 is persistently visible and well connected (§6).
			sel := routing.NewSelector(routing.Config{MinDegree: 2, MinPersistence: 0.5})
			sel.SetDegree(addr(1), len(c.net.Neighbors(addr(1))))
			for s := 0; s < 4; s++ {
				sel.Observe(c.net.Neighbors(addr(0)))
			}
			c.inst[0].SetRelays(sel.Backbone())
		}

		delivered, local := 0, 0
		for k := 0; k < deliveries; k++ {
			payload := tuple.T(tuple.String("resp"), tuple.Int(int64(k)))
			if err := c.inst[0].OutBack(core.Result{Tuple: payload, From: addr(2)}, nil); err != nil {
				c.close()
				return nil, err
			}
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if _, ok := c.inst[2].LocalSpace().Rdp(tuple.Tmpl(tuple.String("resp"), tuple.Int(int64(k)))); ok {
					delivered++
					break
				}
				if _, ok := c.inst[0].LocalSpace().Rdp(tuple.Tmpl(tuple.String("resp"), tuple.Int(int64(k)))); ok {
					local++
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		name := "RouteLocal (no backbone)"
		if useRelay {
			name = "RouteRelay via node 1"
		}
		t.AddRow(name, fmtI(int64(delivered)), fmtI(int64(local)))
		c.close()
	}
	t.AddNote("topology 0–1–2: the origin (node 2) is never directly visible to the sender (node 0); only the backbone path delivers")
	return t, nil
}

// X2AdaptiveDiscovery exercises the §5.2–§5.3 extension: an adaptive
// rediscovery interval tracks churn, probing often only when the
// environment is actually changing.
func X2AdaptiveDiscovery(scale Scale) (*Table, error) {
	ticksPerPhase := 40
	if scale == Quick {
		ticksPerPhase = 15
	}
	minIv, maxIv := 100*time.Millisecond, 1600*time.Millisecond
	tick := 100 * time.Millisecond

	type phase struct {
		name  string
		churn bool
	}
	phases := []phase{{"stable", false}, {"churning", true}, {"stable again", false}}

	run := func(adaptive bool) (probes int64, perPhase []string) {
		mon := monitor.New(8)
		ctl := monitor.NewAdaptiveInterval(minIv, maxIv)
		interval := minIv
		var elapsed time.Duration
		stableSet := []wire.Addr{"a", "b", "c"}
		flip := 0
		for _, ph := range phases {
			phaseProbes := int64(0)
			for i := 0; i < ticksPerPhase; i++ {
				visible := stableSet
				if ph.churn {
					flip++
					visible = []wire.Addr{"a", wire.Addr(fmt.Sprintf("x%d", flip))}
				}
				mon.ObserveVisible(time.Time{}, visible)
				if adaptive {
					// The controller re-evaluates on every observation,
					// so churn snaps the interval back immediately even
					// when the current interval is long.
					interval = ctl.Update(mon.Stability())
				}
				elapsed += tick
				if elapsed >= interval {
					probes++
					phaseProbes++
					elapsed = 0
				}
			}
			perPhase = append(perPhase, fmtI(phaseProbes))
		}
		return probes, perPhase
	}

	fixedTotal, fixedPhases := run(false)
	adaptTotal, adaptPhases := run(true)

	t := &Table{
		ID:      "X2",
		Title:   "adaptive discovery interval under churn (§5.2–§5.3)",
		Columns: []string{"strategy", "probes stable", "probes churning", "probes stable2", "total"},
	}
	t.AddRow("fixed min interval", fixedPhases[0], fixedPhases[1], fixedPhases[2], fmtI(fixedTotal))
	t.AddRow("adaptive", adaptPhases[0], adaptPhases[1], adaptPhases[2], fmtI(adaptTotal))
	t.AddNote("the adaptive controller backs off exponentially while the visible set is stable and snaps back to the minimum when churn appears, saving multicasts without losing freshness")
	return t, nil
}
