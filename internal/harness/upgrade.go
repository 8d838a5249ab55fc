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
//   - the take contract (ledger.go) across the whole run, kills
//     included;
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
	"slices"
	"strings"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/wire"
)

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
		settleBound    = 5 * time.Second // pairwise capability knowledge converged
		replicateBound = 3 * time.Second // fresh tokens copied off their origin
		drainBound     = 8 * time.Second // all tokens collected after the final kill
	)

	leaked := goroutineBaseline()
	l := newLedger("c6")

	isOld := func(idx int) bool { return idx < oldCount }
	c, err := newCluster(clusterOpts{
		n: nodes,
		mutate: func(idx int, cfg *core.Config) {
			soakTimers(idx, cfg)
			cfg.Replicas = 2
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

	// live tracks the running instance per slot (the upgrade replaces
	// one, then kills it).
	live := make([]*core.Instance, nodes)
	copy(live, c.inst)

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
	// soak's bread and butter. The upgrade stops the canary's alone.
	stopCanary := l.collect(live[0])
	for _, inst := range live[1:] {
		l.collect(inst)
	}
	defer l.stopCollectors()

	// Phase A: the capable half seeds tokens under hour-long leases —
	// nothing may vanish by expiry, so any loss is real. Out blocks for
	// the write-through ack, and the ring only places copies on peers
	// that advertised the replica capability, so a masked node never
	// sees a replicate frame. Old nodes seed nothing: without
	// replication their uncollected tokens could not survive the
	// upgrade kill, and this soak kills by design. An out that raced a
	// kill into ErrClosed is exempt from the loss clause only. seedFrom
	// counts the outs found stored at inst when Out returned.
	outTerms := lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 16, MaxRemotes: 64})
	next := int64(0)
	seedFrom := func(inst *core.Instance, n int) (stored int, err error) {
		for s := 0; s < n; s++ {
			id := next
			next++
			err := l.out(inst, id, outTerms)
			if err != nil && !errors.Is(err, core.ErrClosed) {
				return stored, fmt.Errorf("C6: seeding token %d: %w", id, err)
			}
			if _, ok := inst.LocalSpace().Rdp(l.one(id)); err == nil && ok {
				stored++
			}
		}
		return stored, nil
	}
	for idx := oldCount; idx < nodes; idx++ {
		if _, err := seedFrom(live[idx], perNode); err != nil {
			return nil, err
		}
	}

	// Mid-soak upgrade: drain one masked node's collector, kill it, and
	// bring the same address back as a full build with a real decoder —
	// a rolling upgrade of one canary.
	const upIdx = 0
	stopCanary()
	time.Sleep(200 * time.Millisecond) // let its in-flight takes settle
	l.fault("kill %s for upgrade", addr(upIdx))
	live[upIdx].Close()
	c.net.ClearDecodeCaps(addr(upIdx))
	ep, err := c.net.Attach(addr(upIdx))
	if err != nil {
		return nil, err
	}
	c.net.ConnectAll() // the fresh endpoint needs its visibility edges
	ucfg := core.Config{Endpoint: ep, Clock: c.clk, Metrics: c.met}
	soakTimers(upIdx, &ucfg)
	ucfg.Replicas = 2
	// Activation must land within one announce round of the upgraded node
	// coming back; double it for scheduler noise under -race.
	announceRound := ucfg.RediscoverInterval
	activationBound := 2 * announceRound
	upgradeAt := time.Now()
	l.fault("restart %s unmasked", addr(upIdx))
	upgraded, err := core.New(ucfg)
	if err != nil {
		return nil, err
	}
	c.inst[upIdx] = upgraded // closed with the cluster on every path, and reported
	live[upIdx] = upgraded

	// Activation: the boot hello carries the new capability set, so
	// every capable peer must learn it within one announce round. This
	// is the live gate condition for advisory fields and the replica
	// ring, so learning IS activation.
	var activation time.Duration
	for {
		var unlearned []string
		for idx := oldCount; idx < nodes; idx++ {
			if state, ok := canaryKnowledge(live[idx], addr(upIdx)); !ok {
				unlearned = append(unlearned, fmt.Sprintf("%s (%s)", addr(idx), state))
			}
		}
		activation = time.Since(upgradeAt)
		if len(unlearned) == 0 {
			break
		}
		if activation > activationBound {
			return nil, fmt.Errorf("C6 invariant: upgraded node's capabilities not learned cluster-wide within %v (one announce round is %v): not learned at %s",
				activationBound, announceRound, strings.Join(unlearned, ", "))
		}
		time.Sleep(time.Millisecond)
	}
	// The upgraded node bootstraps its own view the way a restarted
	// daemon does: one discovery round.
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	_, _ = upgraded.Spaces(sctx)
	scancel()
	stopCanary = l.collect(upgraded)

	// Phase B: the upgraded node seeds fresh tokens. With its mask gone
	// the replicator runs, so each token must land a copy on another
	// capable node — then the upgraded node dies, and those copies are
	// the only way its uncollected tokens survive. Only an out that stayed
	// stored is written through: one its own collector took at the Out left
	// nothing, and a baseline taker's hold withholds copies (DESIGN.md §13).
	firstB := next
	stored, err := seedFrom(upgraded, perNode)
	if err != nil {
		return nil, err
	}
	if stored > 0 && upgraded.Replication().Writes == 0 {
		return nil, fmt.Errorf("C6 invariant: upgraded node wrote none of the %d fresh tokens that stayed stored through to a backup; the upgrade never activated the ring", stored)
	}
	if err := l.awaitReplicated(upgraded, firstB, next, live, replicateBound); err != nil {
		return nil, fmt.Errorf("C6: %w", err)
	}
	stopCanary()
	l.fault("kill %s, upgraded", addr(upIdx))
	upgraded.Close()
	live[upIdx] = nil

	// Drain: every acknowledged token — phase A and the dead upgraded
	// node's phase B — must be taken, once, and none left resident.
	drain := l.drain(drainBound)
	l.sweep(live)
	if err := l.check(); err != nil {
		return nil, fmt.Errorf("C6: %w", err)
	}

	// Wire-safety invariants: the simulated old decoders must never have
	// rejected anything but the bounded optimistic announces, and no
	// frame may have failed a real decode either.
	annRejects := c.met.Get(trace.CtrCapsSimAnnounceRejects)
	if violations := c.met.Get(trace.CtrCapsSimViolations); violations != 0 {
		return nil, fmt.Errorf("C6 invariant: %d versioned frames reached a baseline decoder on a gated path", violations)
	}
	if corrupt := c.met.Get(trace.CtrCorruptFrames); corrupt != 0 {
		return nil, fmt.Errorf("C6 invariant: %d frames failed decode on the simulated wire", corrupt)
	}

	var rep core.ReplicationReport
	for _, inst := range c.inst { // masked builds report zero
		r := inst.Replication()
		rep.Writes += r.Writes
		rep.FailoverTakes += r.FailoverTakes
		rep.Repairs += r.Repairs
	}

	c.close()
	if err := leaked(); err != nil {
		return nil, fmt.Errorf("C6: %w", err)
	}

	t := &Table{
		ID:    "C6",
		Title: "mixed-version soak: half baseline decoders, one rolling upgrade, upgrade-then-kill",
		Columns: []string{"nodes", "baseline", "seeded", "collected", "settle", "activation", "drain",
			"caps learned", "gated sends", "announce rejects", "repl writes", "failover takes"},
	}
	seeded, collected := l.tally()
	t.AddRow(fmtI(int64(nodes)), fmtI(int64(oldCount)), fmtI(int64(seeded)), fmtI(int64(collected)),
		fmtD(settle), fmtD(activation), fmtD(drain),
		fmtI(c.met.Get(trace.CtrCapsLearned)), fmtI(c.met.Get(trace.CtrCapsGatedSends)),
		fmtI(annRejects), fmtI(int64(rep.Writes)), fmtI(int64(rep.FailoverTakes)))
	t.AddNote("contract held: %d acknowledged tokens taken once, none resident after its take, across a 50%% baseline cluster, one in-place upgrade, and an upgrade-then-kill; zero versioned frames on gated paths (%d bounded announce-probe rejects)",
		seeded, annRejects)
	t.AddNote("capability activation %v after restart (bound: one %v announce round, doubled for scheduler noise)", activation, announceRound)
	chaosSummary(t, c.met.Get(trace.CtrRetries), c.met.Get(trace.CtrDedupDrops))
	return t, nil
}

// canaryKnowledge reports whether peer has learned the canary's full
// capability set and, for the activation error, what it knows instead:
// its capability state for the canary (discovery.CapsState) and whether
// the canary is on its responder list.
func canaryKnowledge(peer *core.Instance, canary wire.Addr) (state string, learned bool) {
	caps, known := peer.PeerCaps(canary)
	switch {
	case !known:
		state = "CapsUnknown"
	case caps == 0:
		state = "CapsBaseline"
	default:
		state = "CapsAware " + wire.CapsString(caps)
	}
	if slices.Contains(peer.ResponderList(), canary) {
		state += ", listed"
	} else {
		state += ", not on its responder list"
	}
	return state, known && caps == wire.CapsCurrent
}
