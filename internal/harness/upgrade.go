package harness

// C6 is the mixed-version rolling-upgrade soak (DESIGN.md §14): an
// 8-node cluster where half the nodes run as capability-masked
// "baseline" builds — they advertise nothing, send nothing versioned,
// and their simulated decoders reject any frame carrying an optional
// extension, exactly as a real pre-capability binary would fail closed.
// The soak drives cross-version traffic both ways, then upgrades one
// baseline node in place (kill + restart unmasked) and finally kills the
// upgraded node after it has replicated fresh tokens. It asserts:
//
//   - token conservation and at-most-once takes across the whole run,
//     kills included;
//   - zero simulated decode rejections on gated paths (announce
//     rejections are the bounded, expected cost of capability probing;
//     anything else rejected is a per-destination gating bug);
//   - capability activation within one announce round of the upgrade:
//     every capable peer learns the upgraded node's full set, which is
//     the live condition for advisory fields and ring membership;
//   - replication actually engages on the upgraded node (its fresh
//     tokens survive its death via failover takes);
//   - no goroutine leaks.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/tuple"
	"tiamat/wire"
)

func c6Token(v int64) tuple.Tuple { return tuple.T(tuple.String("c6"), tuple.Int(v)) }
func c6Tmpl() tuple.Template      { return tuple.Tmpl(tuple.String("c6"), tuple.FormalInt()) }
func c6One(v int64) tuple.Template {
	return tuple.Tmpl(tuple.String("c6"), tuple.Int(v))
}

// c6Timers is the shared config mutation for every C6 instance — the
// tight timers C5 uses, so discovery, repair, and orphan sweeps all turn
// over fast enough for a soak measured in seconds.
func c6Timers(idx int, cfg *core.Config) {
	cfg.Replicas = 2
	cfg.RepairInterval = 100 * time.Millisecond
	cfg.ContinuousDiscovery = true
	cfg.RediscoverInterval = 100 * time.Millisecond
	cfg.ContactTimeout = 30 * time.Millisecond
	cfg.RetryBackoff = 10 * time.Millisecond
	cfg.HoldGrace = 300 * time.Millisecond
	cfg.OrphanSweepInterval = 50 * time.Millisecond
	cfg.OrphanGrace = 250 * time.Millisecond
	cfg.RetrySeed = uint64(idx) + 1
}

// C6Upgrade runs the mixed-version soak and asserts its acceptance
// invariants, returning an error (not just a table) when one is broken.
func C6Upgrade(scale Scale) (*Table, error) {
	const nodes = 8 // half masked: the rolling upgrade's 50% waypoint
	oldCount := nodes / 2
	perNode := 3
	if scale == Full {
		perNode = 8
	}
	const (
		settleBound    = 5 * time.Second        // pairwise capability knowledge converged
		replicateBound = 3 * time.Second        // fresh tokens copied off their origin
		drainBound     = 8 * time.Second        // all tokens collected after the final kill
		announceRound  = 100 * time.Millisecond // RediscoverInterval above
		// Activation must land within one announce round of the upgraded
		// node coming back; double it for scheduler noise under -race.
		activationBound = 2 * announceRound
	)

	goroutinesBefore := runtime.NumGoroutine()

	isOld := func(idx int) bool { return idx < oldCount }
	c, err := newCluster(clusterOpts{
		n: nodes,
		mutate: func(idx int, cfg *core.Config) {
			c6Timers(idx, cfg)
			if isOld(idx) {
				// A masked node neither advertises nor uses any versioned
				// feature — Replicas stays configured but the mask keeps
				// the replicator off, like the old binary it stands for.
				cfg.CapsMask = wire.CapsCurrent
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	// The masked nodes' *decoders* must be old too: reject any frame
	// carrying an optional extension at the receiving edge. Installed
	// before visibility connects, so no versioned frame ever slips in.
	for idx := 0; idx < oldCount; idx++ {
		c.net.SetDecodeCaps(addr(idx), 0)
	}
	c.net.ConnectAll()

	// live tracks the current instance per slot (the upgrade replaces
	// one); capable lists the slots currently running unmasked builds.
	live := make([]*core.Instance, nodes)
	copy(live, c.inst)
	capable := func() []*core.Instance {
		var out []*core.Instance
		for idx, inst := range live {
			if inst != nil && (!isOld(idx) || inst.Caps() != 0) {
				out = append(out, inst)
			}
		}
		return out
	}

	// Settle: discovery rounds until every live pair knows the other's
	// build. The first optimistic capability-bearing announces toward
	// masked decoders are rejected (counted, bounded); the capability
	// probes that follow mark those peers baseline and the next round
	// goes out byte-identical to the old format.
	converged := func() bool {
		for ai, a := range live {
			for bi, b := range live {
				if ai == bi {
					continue
				}
				if _, known := a.PeerCaps(b.Addr()); !known {
					return false
				}
			}
		}
		return true
	}
	settleStart := time.Now()
	for !converged() {
		sctx, scancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		for _, inst := range live {
			_, _ = inst.Spaces(sctx)
		}
		scancel()
		if time.Since(settleStart) > settleBound {
			return nil, fmt.Errorf("C6: mixed cluster never converged capability knowledge within %v", settleBound)
		}
	}
	settle := time.Since(settleStart)
	for idx := oldCount; idx < nodes; idx++ {
		if got := live[idx].BaselinePeers(); got != oldCount {
			return nil, fmt.Errorf("C6: %s reports %d baseline peers, want %d", addr(idx), got, oldCount)
		}
	}

	// Collectors on every node, old and new: cross-version takes are the
	// soak's bread and butter. Each has its own cancel so the upgrade
	// can drain one node without stopping the others.
	var (
		mu        sync.Mutex
		seeded    = make(map[int64]bool)
		collected = make(map[int64]int)
		dupTakes  int64
	)
	var wg sync.WaitGroup
	cancels := make([]context.CancelFunc, nodes)
	collect := func(slot int, inst *core.Instance) {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[slot] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			terms := lease.Flexible(lease.Terms{Duration: 250 * time.Millisecond, MaxRemotes: 64})
			for ctx.Err() == nil {
				res, err := inst.In(ctx, c6Tmpl(), terms)
				if err != nil {
					if errors.Is(err, core.ErrNoMatch) {
						continue
					}
					return
				}
				v, err := res.Tuple.IntAt(1)
				if err != nil {
					continue
				}
				mu.Lock()
				collected[v]++
				if collected[v] > 1 {
					dupTakes++
				}
				mu.Unlock()
			}
		}()
	}
	stopAll := func() {
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
		wg.Wait()
	}
	for idx, inst := range live {
		collect(idx, inst)
	}

	// Phase A: the capable half seeds tokens under hour-long leases —
	// nothing may vanish by expiry, so any loss is real. Out blocks for
	// the write-through ack, and the ring only places copies on peers
	// that advertised the replica capability, so a masked node never
	// sees a replicate frame. Old nodes seed nothing: without
	// replication their uncollected tokens could not survive the
	// upgrade kill, and this soak kills by design.
	outTerms := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16, MaxRemotes: 64})
	next := int64(0)
	seedFrom := func(inst *core.Instance, n int) error {
		for s := 0; s < n; s++ {
			id := next
			next++
			if err := inst.Out(c6Token(id), outTerms); err != nil {
				if errors.Is(err, core.ErrClosed) {
					continue // raced a kill; exempt from conservation
				}
				return fmt.Errorf("C6: seeding token %d: %w", id, err)
			}
			mu.Lock()
			seeded[id] = true
			mu.Unlock()
		}
		return nil
	}
	for idx := oldCount; idx < nodes; idx++ {
		if err := seedFrom(live[idx], perNode); err != nil {
			stopAll()
			return nil, err
		}
	}

	// Mid-soak upgrade: drain one masked node's collector, kill it, and
	// bring the same address back as a full build with a real decoder —
	// a rolling upgrade of one canary.
	const upIdx = 0
	cancels[upIdx]()
	time.Sleep(200 * time.Millisecond) // let its in-flight takes settle
	live[upIdx].Close()
	c.net.ClearDecodeCaps(addr(upIdx))
	ep, err := c.net.Attach(addr(upIdx))
	if err != nil {
		stopAll()
		return nil, err
	}
	c.net.ConnectAll() // the fresh endpoint needs its visibility edges
	ucfg := core.Config{Endpoint: ep, Clock: c.clk, Metrics: c.met}
	c6Timers(upIdx, &ucfg)
	upgradeAt := time.Now()
	upgraded, err := core.New(ucfg)
	if err != nil {
		stopAll()
		return nil, err
	}
	live[upIdx] = upgraded

	// Activation: the boot hello carries the new capability set, so
	// every capable peer must learn it within one announce round. This
	// is the live gate condition for advisory fields and the replica
	// ring, so learning IS activation.
	var activation time.Duration
	for {
		ok := true
		for idx := oldCount; idx < nodes; idx++ {
			caps, known := live[idx].PeerCaps(addr(upIdx))
			if !known || caps != wire.CapsCurrent {
				ok = false
				break
			}
		}
		activation = time.Since(upgradeAt)
		if ok {
			break
		}
		if activation > activationBound {
			stopAll()
			return nil, fmt.Errorf("C6 invariant: upgraded node's capabilities not learned cluster-wide within %v (one announce round is %v)",
				activationBound, announceRound)
		}
		time.Sleep(time.Millisecond)
	}
	// The upgraded node bootstraps its own view the way a restarted
	// daemon does: one discovery round.
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	_, _ = upgraded.Spaces(sctx)
	scancel()
	collect(upIdx, upgraded)

	// Phase B: the upgraded node seeds fresh tokens. With its mask gone
	// the replicator runs, so each token must land a copy on another
	// capable node — then the upgraded node dies, and those copies are
	// the only way its uncollected tokens survive.
	firstB := next
	if err := seedFrom(upgraded, perNode); err != nil {
		stopAll()
		return nil, err
	}
	survivorCopies := func(v int64) int {
		n := 0
		for idx, inst := range live {
			if idx != upIdx && inst != nil {
				n += inst.ReplicaCopies(c6One(v))
			}
		}
		return n
	}
	repl := upgraded.Replication()
	if repl.Writes == 0 {
		stopAll()
		return nil, fmt.Errorf("C6 invariant: upgraded node performed no write-through replication; the upgrade never activated the ring")
	}
	deadline := time.Now().Add(replicateBound)
	for id := firstB; id < next; id++ {
		for {
			mu.Lock()
			done := !seeded[id] || collected[id] > 0
			mu.Unlock()
			if done || survivorCopies(id) >= 1 {
				break
			}
			if time.Now().After(deadline) {
				stopAll()
				return nil, fmt.Errorf("C6 invariant: post-upgrade token %d never replicated off the upgraded node within %v", id, replicateBound)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cancels[upIdx]()
	upgraded.Close()
	live[upIdx] = nil

	// Drain: every seeded token — phase A and the dead upgraded node's
	// phase B — must surface exactly once.
	drainStart := time.Now()
	for {
		mu.Lock()
		missing := 0
		for id := range seeded {
			if collected[id] == 0 {
				missing++
			}
		}
		nSeeded, nCollected := len(seeded), len(collected)
		mu.Unlock()
		if missing == 0 {
			break
		}
		if time.Since(drainStart) > drainBound {
			stopAll()
			return nil, fmt.Errorf("C6 invariant: %d seeded tokens lost %v after the upgrade kill (%d seeded, %d collected)",
				missing, drainBound, nSeeded, nCollected)
		}
		time.Sleep(5 * time.Millisecond)
	}
	drain := time.Since(drainStart)
	stopAll()

	// Wire-safety invariants: the simulated old decoders must never have
	// rejected anything but the bounded optimistic announces, and no
	// frame may have failed a real decode either.
	violations := c.met.Get(trace.CtrCapsSimViolations)
	annRejects := c.met.Get(trace.CtrCapsSimAnnounceRejects)
	if violations != 0 {
		return nil, fmt.Errorf("C6 invariant: %d versioned frames reached a baseline decoder on a gated path", violations)
	}
	if corrupt := c.met.Get(trace.CtrCorruptFrames); corrupt != 0 {
		return nil, fmt.Errorf("C6 invariant: %d frames failed decode on the simulated wire", corrupt)
	}
	mu.Lock()
	nSeeded, nCollected := len(seeded), len(collected)
	dups := dupTakes
	mu.Unlock()
	if dups > 0 {
		return nil, fmt.Errorf("C6 invariant: %d duplicate takes across the mixed-version soak", dups)
	}

	var rep core.ReplicationReport
	for _, inst := range capable() {
		r := inst.Replication()
		rep.Writes += r.Writes
		rep.FailoverTakes += r.FailoverTakes
		rep.Repairs += r.Repairs
	}
	rep.Writes += repl.Writes // the upgraded node's, snapshotted pre-kill

	c.close()
	leaked := -1
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= goroutinesBefore+2 {
			leaked = 0
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked != 0 {
		return nil, fmt.Errorf("C6 invariant: goroutine leak — %d before, %d after close",
			goroutinesBefore, runtime.NumGoroutine())
	}

	t := &Table{
		ID:    "C6",
		Title: "mixed-version soak: half baseline decoders, one rolling upgrade, upgrade-then-kill",
		Columns: []string{"nodes", "baseline", "seeded", "collected", "dup takes", "settle", "activation", "drain",
			"caps learned", "gated sends", "announce rejects", "sim violations", "repl writes", "failover takes"},
	}
	t.AddRow(fmtI(int64(nodes)), fmtI(int64(oldCount)), fmtI(int64(nSeeded)), fmtI(int64(nCollected)),
		fmtI(dups), fmtD(settle), fmtD(activation), fmtD(drain),
		fmtI(c.met.Get(trace.CtrCapsLearned)), fmtI(c.met.Get(trace.CtrCapsGatedSends)),
		fmtI(annRejects), fmtI(violations),
		fmtI(int64(rep.Writes)), fmtI(int64(rep.FailoverTakes)))
	t.AddNote("invariants held: %d tokens exactly-once across a 50%% baseline cluster, one in-place upgrade, and an upgrade-then-kill; zero versioned frames on gated paths (%d bounded announce-probe rejects)",
		nSeeded, annRejects)
	t.AddNote("capability activation %v after restart (bound: one %v announce round, doubled for scheduler noise)", activation, announceRound)
	chaosSummary(t, c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops))
	return t, nil
}
