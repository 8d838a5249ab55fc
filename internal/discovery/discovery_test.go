package discovery

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"tiamat/clock"
	"tiamat/trace"
	"tiamat/wire"
)

func TestObserveAppendsAtBottom(t *testing.T) {
	l := NewResponderList(0, nil)
	l.Observe("a")
	l.Observe("b")
	l.Observe("c")
	got := l.Snapshot()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
	// Re-observing an existing responder must not move it.
	l.Observe("a")
	if got := l.Snapshot(); got[0] != "a" || len(got) != 3 {
		t.Fatalf("re-observe changed order: %v", got)
	}
	if !l.Contains("b") || l.Contains("zz") {
		t.Fatal("Contains wrong")
	}
	if position(l, "c") != 2 || position(l, "zz") != -1 {
		t.Fatal("position wrong")
	}
}

// position returns addr's 0-based position from the top of l, or -1.
func position(l *ResponderList, addr wire.Addr) int {
	return slices.Index(l.All(), addr)
}

func TestObserveEmptyAddrIgnored(t *testing.T) {
	l := NewResponderList(0, nil)
	l.Observe("")
	if l.Len() != 0 {
		t.Fatal("empty addr observed")
	}
}

func TestEvictByAttritionPromotesStableNodes(t *testing.T) {
	// The paper's claim: consistently visible instances work their way to
	// the top because flaky ones above them are evicted.
	l := NewResponderList(0, nil)
	l.Observe("flaky1")
	l.Observe("flaky2")
	l.Observe("stable")
	if position(l, "stable") != 2 {
		t.Fatalf("setup: stable at %d", position(l, "stable"))
	}
	l.Evict("flaky1")
	l.Evict("flaky2")
	if position(l, "stable") != 0 {
		t.Fatalf("stable at %d after attrition, want 0", position(l, "stable"))
	}
	// New responders land below the stable one.
	l.Observe("newcomer")
	if position(l, "newcomer") != 1 {
		t.Fatalf("newcomer at %d", position(l, "newcomer"))
	}
}

func TestDepartRemovesWithoutEviction(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	l.Observe("leaver")
	l.Observe("stayer")
	l.Depart("leaver")
	l.Depart("ghost") // absent: not counted
	if l.Contains("leaver") {
		t.Fatal("departed node still listed")
	}
	if !l.Contains("stayer") {
		t.Fatal("bystander removed")
	}
	if met.Get(trace.CtrGoodbyes) != 1 {
		t.Fatalf("goodbyes = %d, want 1", met.Get(trace.CtrGoodbyes))
	}
	if met.Get(trace.CtrListEvictions) != 0 {
		t.Fatal("graceful departure counted as eviction")
	}
}

func TestEvictAbsentIsNoop(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	l.Evict("ghost")
	if met.Get(trace.CtrListEvictions) != 0 {
		t.Fatal("evicting absent addr counted")
	}
}

func TestBoundedListEvictsBottom(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(2, met)
	l.Observe("a")
	l.Observe("b")
	l.Observe("c")
	got := l.Snapshot()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("bounded list = %v", got)
	}
	if l.Contains("b") {
		t.Fatal("victim still indexed")
	}
	if met.Get(trace.CtrListEvictions) != 1 {
		t.Fatal("eviction not counted")
	}
}

// Property: the list never contains duplicates and index matches order,
// under any interleaving of observes and evicts.
func TestPropNoDuplicates(t *testing.T) {
	prop := func(ops []uint8) bool {
		l := NewResponderList(4, nil)
		names := []wire.Addr{"a", "b", "c", "d", "e", "f"}
		for _, op := range ops {
			a := names[int(op)%len(names)]
			if op%2 == 0 {
				l.Observe(a)
			} else {
				l.Evict(a)
			}
		}
		snap := l.Snapshot()
		seen := map[wire.Addr]bool{}
		for _, a := range snap {
			if seen[a] {
				return false
			}
			seen[a] = true
			if !l.Contains(a) {
				return false
			}
		}
		return l.Len() == len(snap) && len(snap) <= 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- health scores -------------------------------------------------------

func TestSuspicionSkipsFlappingResponder(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk)
	l.Observe("good")
	l.Observe("flappy")
	l.Fail("flappy")
	l.Fail("flappy")
	if l.Suspected("flappy") {
		t.Fatal("suspected below threshold")
	}
	l.Fail("flappy")
	if !l.Suspected("flappy") {
		t.Fatal("not suspected at threshold")
	}
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0] != "good" {
		t.Fatalf("snapshot = %v, want [good]", snap)
	}
	// The full order is preserved: suspicion does not restructure.
	if all := l.All(); len(all) != 2 || all[1] != "flappy" {
		t.Fatalf("all = %v", all)
	}
	if met.Get(trace.CtrSuspicions) != 1 || met.Get(trace.CtrSuspectSkips) != 1 {
		t.Fatalf("counters: suspicions=%d skips=%d",
			met.Get(trace.CtrSuspicions), met.Get(trace.CtrSuspectSkips))
	}
}

func TestSuspicionDecaysThenRedoubles(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	l := NewResponderList(0, nil, clk)
	l.Observe("x")
	for k := 0; k < SuspectThreshold; k++ {
		l.Fail("x") // the last one suspects for 2s
	}
	if !l.Suspected("x") {
		t.Fatal("not suspected")
	}
	clk.Advance(cooldownFirst)
	if l.Suspected("x") {
		t.Fatal("suspicion did not decay")
	}
	if snap := l.Snapshot(); len(snap) != 1 {
		t.Fatalf("half-open entry missing: %v", snap)
	}
	// Half-open failure re-suspends with doubled cooldown (4s).
	l.Fail("x")
	clk.Advance(cooldownFirst)
	if !l.Suspected("x") {
		t.Fatal("cooldown did not double")
	}
	clk.Advance(cooldownFirst)
	if l.Suspected("x") {
		t.Fatal("second suspicion did not decay")
	}
	// Cooldown doubling is capped at 30s: fail 5 more times (8s, 16s,
	// then capped), each suspension is at most 30s.
	for k := 0; k < 5; k++ {
		l.Fail("x")
	}
	clk.Advance(cooldownMax)
	if l.Suspected("x") {
		t.Fatal("cooldown exceeded cap")
	}
}

func TestSuccessRestoresHealth(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	l := NewResponderList(0, nil, clk)
	l.Observe("x")
	for k := 0; k < SuspectThreshold; k++ {
		l.Fail("x")
	}
	if !l.Suspected("x") {
		t.Fatal("not suspected")
	}
	l.Promote("x") // a found reply
	if l.Suspected("x") {
		t.Fatal("success did not clear suspicion")
	}
	// Health fully reset: the next failure starts from zero again.
	l.Fail("x")
	if l.Suspected("x") {
		t.Fatal("fail count not reset by success")
	}
	// Re-observing is also evidence of life.
	l.Fail("x")
	l.Fail("x")
	if !l.Suspected("x") {
		t.Fatal("setup: should be suspected")
	}
	l.Observe("x")
	if l.Suspected("x") {
		t.Fatal("observe did not clear suspicion")
	}
}

func TestFailUnknownAddrIsNoop(t *testing.T) {
	l := NewResponderList(0, nil)
	l.Fail("ghost")
	l.ObserveLatency("ghost", time.Millisecond)
	if l.Len() != 0 {
		t.Fatal("health ops created entries")
	}
}

func TestPromoteMovesToTop(t *testing.T) {
	l := NewResponderList(0, nil)
	l.Observe("a")
	l.Observe("b")
	l.Observe("c")
	l.Promote("c")
	if got := l.Snapshot(); got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("order after promote = %v", got)
	}
	// Promoting the top entry is a no-op on order.
	l.Promote("c")
	if got := l.Snapshot(); got[0] != "c" || len(got) != 3 {
		t.Fatalf("re-promote changed order: %v", got)
	}
	// An unknown finder enters above every entry with a lower share and
	// below any with a higher one.
	l.Promote("d")
	if got := l.Snapshot(); len(got) != 4 || got[0] != "c" || got[1] != "d" || got[2] != "a" || got[3] != "b" {
		t.Fatalf("promote-insert = %v", got)
	}
	l.Promote("")
	if l.Len() != 4 {
		t.Fatal("empty addr promoted")
	}
}

func TestPromoteRestoresHealthAndRespectsBound(t *testing.T) {
	l := NewResponderList(3, nil, clock.NewVirtual(time.Unix(0, 0)))
	l.Observe("a")
	l.Observe("b")
	l.Observe("c")
	for k := 0; k < SuspectThreshold; k++ {
		l.Fail("b")
	}
	if !l.Suspected("b") {
		t.Fatal("setup: b should be suspected")
	}
	l.Promote("b")
	if l.Suspected("b") {
		t.Fatal("promotion did not restore health")
	}
	// The found reply cleared suspicion, but a suspected peer does not
	// jump healthy peers on one answer; the next promote (clean) does.
	if got := l.Snapshot(); got[0] != "a" {
		t.Fatalf("order = %v", got)
	}
	l.Promote("b")
	if got := l.Snapshot(); got[0] != "b" {
		t.Fatalf("order = %v", got)
	}
	// A promote-insert on a full list evicts the bottom entry, same as
	// Observe: the least-proven responder makes room.
	l.Promote("z")
	got := l.Snapshot()
	if len(got) != 3 || got[0] != "z" || l.Contains("c") {
		t.Fatalf("bounded promote = %v (contains c: %v)", got, l.Contains("c"))
	}
}

// subscribe attaches a fresh subscription to l.
func subscribe(l *ResponderList) (<-chan wire.Addr, func()) {
	s := NewSubscription()
	l.Attach(s)
	return s.Joins(), func() { l.Detach(s) }
}

// drain pulls every immediately available join off ch.
func drain(ch <-chan wire.Addr) []wire.Addr {
	var out []wire.Addr
	for {
		select {
		case a := <-ch:
			out = append(out, a)
		default:
			return out
		}
	}
}

// TestEventsJoinLeaveEpochs: a subscriber hears each peer entering the
// list once — on its first observe and again on a rejoin — and nothing of
// its leaving; the visibility counters still count both. Events carry no
// epoch.
func TestEventsJoinLeaveEpochs(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	ch, cancel := subscribe(l)
	defer cancel()

	l.Observe("a")
	l.Observe("b")
	if evs := drain(ch); !slices.Equal(evs, []wire.Addr{"a", "b"}) {
		t.Fatalf("joins = %v", evs)
	}
	// Re-observing a present responder is not a transition: no event.
	l.Observe("a")
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("re-observe emitted %v", evs)
	}
	l.Evict("a")
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("evict emitted %v", evs)
	}
	l.Observe("a") // rejoin
	if evs := drain(ch); !slices.Equal(evs, []wire.Addr{"a"}) {
		t.Fatalf("rejoin events = %v", evs)
	}
	if j, lv := met.Get(trace.CtrVisJoins), met.Get(trace.CtrVisLeaves); j != 3 || lv != 1 {
		t.Fatalf("counts joins=%d leaves=%d", j, lv)
	}
}

// TestEventsPromoteDepartClear: promoting an absent peer is a join,
// re-promoting a present one is not, and a departure sends nothing.
func TestEventsPromoteDepartClear(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	ch, cancel := subscribe(l)
	defer cancel()

	l.Promote("a") // absent: join + move to top
	if evs := drain(ch); !slices.Equal(evs, []wire.Addr{"a"}) {
		t.Fatalf("promote events = %v", evs)
	}
	l.Promote("a") // present: no transition
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("re-promote emitted %v", evs)
	}
	l.Observe("b")
	drain(ch)
	l.Depart("b")
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("depart emitted %v", evs)
	}
	if got := met.Get(trace.CtrVisLeaves); got != 1 {
		t.Fatalf("%s = %d, want 1", trace.CtrVisLeaves, got)
	}
}

// TestEventsAttritionEvictionEmitsLeave: a full list that evicts its
// bottom entry to admit a newcomer sends only the newcomer's join; the
// eviction is counted as a leave but not sent.
func TestEventsAttritionEvictionEmitsLeave(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(2, met)
	l.Observe("a")
	l.Observe("b")
	ch, cancel := subscribe(l)
	defer cancel()
	l.Observe("c") // bottom entry b is evicted to make room
	if evs := drain(ch); !slices.Equal(evs, []wire.Addr{"c"}) {
		t.Fatalf("attrition events = %v, want the one join of c", evs)
	}
	if got := met.Get(trace.CtrVisLeaves); got != 1 {
		t.Fatalf("%s = %d, want 1", trace.CtrVisLeaves, got)
	}
}

// TestEventsJoinNotCrowdedOut: a subscriber that reads nothing while a
// full buffer's worth of peers leave still hears the next join, and
// nothing is dropped — leaves take no room in its buffer.
func TestEventsJoinNotCrowdedOut(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	for k := 0; k < subBuf; k++ {
		l.Observe(wire.Addr(fmt.Sprintf("p%d", k)))
	}
	ch, cancel := subscribe(l) // never read until the end
	defer cancel()
	for k := 0; k < subBuf; k++ {
		l.Evict(wire.Addr(fmt.Sprintf("p%d", k)))
	}
	l.Observe("newcomer")
	if evs := drain(ch); !slices.Equal(evs, []wire.Addr{"newcomer"}) {
		t.Fatalf("joins = %v, want the newcomer's", evs)
	}
	if got := met.Get(trace.CtrVisEventDrops); got != 0 {
		t.Fatalf("%s = %d, want 0", trace.CtrVisEventDrops, got)
	}
}

func TestEventsSubscriberOverflowDropsCounted(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	_, cancel := subscribe(l) // never drained
	defer cancel()
	for i := 0; i < subBuf+10; i++ {
		l.Observe(wire.Addr(rune('a'+i%26)) + wire.Addr(fmt.Sprintf("%d", i)))
	}
	if got := met.Get(trace.CtrVisEventDrops); got != 10 {
		t.Fatalf("drops = %d, want 10", got)
	}
}

// --- latency-aware health (gray failures) --------------------------------

// feedLatency pushes n identical samples for addr.
func feedLatency(l *ResponderList, addr wire.Addr, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		l.ObserveLatency(addr, d)
	}
}

func TestLatencyOutlierDemotesToBack(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk)
	l.Observe("slow")
	l.Observe("fast1")
	l.Observe("fast2")
	feedLatency(l, "fast1", 2*time.Millisecond, 4)
	feedLatency(l, "fast2", 2*time.Millisecond, 4)
	if l.Demoted("slow") {
		t.Fatal("unsampled entry demoted")
	}
	// 100ms vs a 2ms median is far past the 4x line.
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	if !l.Demoted("slow") {
		t.Fatal("sustained outlier not demoted")
	}
	if l.Suspected("slow") {
		t.Fatal("demotion leaked into suspicion")
	}
	// Demoted peers still serve: present in the snapshot, but last.
	snap := l.Snapshot()
	if len(snap) != 3 || snap[2] != "slow" {
		t.Fatalf("snapshot = %v, want slow last", snap)
	}
	// The underlying list order is untouched.
	if all := l.All(); all[0] != "slow" {
		t.Fatalf("all = %v", all)
	}
	if met.Get(trace.CtrDemotions) != 1 {
		t.Fatalf("demotions = %d, want 1", met.Get(trace.CtrDemotions))
	}
	if ewma, n := l.Latency("slow"); ewma == 0 || n != 4 {
		t.Fatalf("latency(slow) = %v/%d", ewma, n)
	}
}

// TestSnapshotAtDemotedDoesNotAllocate pins the walk's snapshot with a
// demoted peer listed: it goes last, in the caller's buffer, and the
// snapshot makes no buffer of its own for it. A suspected peer is left
// out.
func TestSnapshotAtDemotedDoesNotAllocate(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	l := NewResponderList(0, nil, clk)
	for _, a := range []wire.Addr{"slow", "fast1", "gone", "fast2"} {
		l.Observe(a)
	}
	feedLatency(l, "fast1", 2*time.Millisecond, 4)
	feedLatency(l, "fast2", 2*time.Millisecond, 4)
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	for k := 0; k < 3; k++ {
		l.Fail("gone")
	}
	if !l.Demoted("slow") || !l.Suspected("gone") {
		t.Fatal("slow not demoted or gone not suspected")
	}
	buf := make([]wire.Addr, 0, 8)
	var snap []wire.Addr
	if allocs := testing.AllocsPerRun(100, func() {
		snap = l.SnapshotAt(buf[:0], clk.Now())
	}); allocs != 0 {
		t.Fatalf("SnapshotAt with a demoted peer: %v allocs, want 0", allocs)
	}
	if want := []wire.Addr{"fast1", "fast2", "slow"}; !slices.Equal(snap, want) {
		t.Fatalf("snapshot = %v, want %v", snap, want)
	}
}

// TestLatencySampleDoesNotAllocate pins the outlier check, which runs
// under the list lock on every reply: the median comes from a scratch
// slice kept on the list, not from a fresh one sorted through reflection.
func TestLatencySampleDoesNotAllocate(t *testing.T) {
	l := NewResponderList(0, nil, clock.NewVirtual(time.Unix(0, 0)))
	for _, a := range []wire.Addr{"a", "b", "c"} {
		l.Observe(a)
		feedLatency(l, a, 2*time.Millisecond, 4)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		l.ObserveLatency("b", 2*time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("ObserveLatency: %v allocs, want 0", allocs)
	}
}

func TestLatencyDemotionNeedsPeerBaseline(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	l := NewResponderList(0, nil, clk)
	l.Observe("only")
	// With no sampled peer to be relative to, even huge latency is not an
	// outlier — there is nothing to be an outlier *from*.
	feedLatency(l, "only", time.Second, 10)
	if l.Demoted("only") {
		t.Fatal("demoted without a peer baseline")
	}
}

func TestLatencyRecoveryRestoresEarly(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk) // the clock never moves: no cooldown lapses
	l.Observe("slow")
	l.Observe("fast")
	feedLatency(l, "fast", 2*time.Millisecond, 4)
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	if !l.Demoted("slow") {
		t.Fatal("setup: not demoted")
	}
	// Fast samples pull the EWMA back under the recovery line (2x median)
	// before the cooldown lapses.
	feedLatency(l, "slow", 2*time.Millisecond, 40)
	if l.Demoted("slow") {
		t.Fatal("recovered entry still demoted")
	}
	if met.Get(trace.CtrDemoteRestores) != 1 {
		t.Fatalf("restores = %d, want 1", met.Get(trace.CtrDemoteRestores))
	}
}

func TestLatencyDemotionCooldownLapses(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	l := NewResponderList(0, nil, clk)
	l.Observe("slow")
	l.Observe("fast")
	feedLatency(l, "fast", 2*time.Millisecond, 4)
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	if !l.Demoted("slow") {
		t.Fatal("setup: not demoted")
	}
	clk.Advance(cooldownFirst)
	if l.Demoted("slow") {
		t.Fatal("demotion did not lapse")
	}
	// Still slow on the next sample: re-demoted with a doubled cooldown.
	l.ObserveLatency("slow", 100*time.Millisecond)
	clk.Advance(cooldownFirst)
	if !l.Demoted("slow") {
		t.Fatal("re-demotion cooldown did not double")
	}
}

func TestSlowStrikesDemote(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk)
	l.Observe("limper")
	l.Observe("fine")
	l.Slow("limper")
	l.Slow("limper")
	if l.Demoted("limper") {
		t.Fatal("demoted below strike limit")
	}
	l.Slow("limper")
	if !l.Demoted("limper") {
		t.Fatal("strike limit did not demote")
	}
	if snap := l.Snapshot(); snap[len(snap)-1] != "limper" {
		t.Fatalf("snapshot = %v, want limper last", snap)
	}
	if met.Get(trace.CtrSlowStrikes) != 3 || met.Get(trace.CtrDemotions) != 1 {
		t.Fatalf("strikes=%d demotions=%d",
			met.Get(trace.CtrSlowStrikes), met.Get(trace.CtrDemotions))
	}
	l.Slow("ghost") // unknown addr: no entry created
	if l.Len() != 2 {
		t.Fatal("Slow created an entry")
	}
}

func TestObserveDegradedDeprioritizesAndExpires(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk)
	l.Observe("sick")
	l.Observe("well")
	l.ObserveAnnounce("sick", wire.CapsCurrent, true)
	if !l.Demoted("sick") {
		t.Fatal("self-report did not demote")
	}
	if snap := l.Snapshot(); len(snap) != 2 || snap[0] != "well" || snap[1] != "sick" {
		t.Fatalf("snapshot = %v", snap)
	}
	// A healthy announce clears it immediately.
	l.ObserveAnnounce("sick", wire.CapsCurrent, false)
	if l.Demoted("sick") {
		t.Fatal("healthy report did not clear degradation")
	}
	// Without a refresh the flag ages out on its own.
	l.ObserveAnnounce("sick", wire.CapsCurrent, true)
	clk.Advance(degradedTTL)
	if l.Demoted("sick") {
		t.Fatal("degraded flag did not expire")
	}
	if met.Get(trace.CtrPeerDegraded) != 2 {
		t.Fatalf("peer_degraded = %d, want 2", met.Get(trace.CtrPeerDegraded))
	}
}

// Regression (PR 6 satellite): a found reply from a demoted or suspected
// peer must not jump it over healthy peers — Promote restores failure
// health but withholds the move-to-top until the entry is clean again.
func TestPromoteWithheldForDemotedAndSuspected(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk)
	l.Observe("healthy1")
	l.Observe("healthy2")
	l.Observe("slow")
	feedLatency(l, "healthy1", 2*time.Millisecond, 4)
	feedLatency(l, "healthy2", 2*time.Millisecond, 4)
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	if !l.Demoted("slow") {
		t.Fatal("setup: slow not demoted")
	}
	// The demoted peer satisfies an op (it still serves, just slowly):
	// it must not become first contact.
	l.Promote("slow")
	if snap := l.Snapshot(); snap[0] != "healthy1" || snap[len(snap)-1] != "slow" {
		t.Fatalf("promote jumped a demoted peer: %v", snap)
	}
	if met.Get(trace.CtrPromoteHolds) != 1 {
		t.Fatalf("promote_holds = %d, want 1", met.Get(trace.CtrPromoteHolds))
	}

	// Suspected interplay: the found reply clears suspicion (evidence of
	// life) but the promotion itself is still withheld this once.
	for k := 0; k < SuspectThreshold; k++ {
		l.Fail("healthy2")
	}
	if !l.Suspected("healthy2") {
		t.Fatal("setup: healthy2 not suspected")
	}
	l.Promote("healthy2")
	if l.Suspected("healthy2") {
		t.Fatal("promote did not restore failure health")
	}
	if snap := l.Snapshot(); snap[0] != "healthy1" {
		t.Fatalf("promote jumped a suspected peer: %v", snap)
	}
	// Once clean, promotion works again.
	l.Promote("healthy2")
	if snap := l.Snapshot(); snap[0] != "healthy2" {
		t.Fatalf("clean promote failed: %v", snap)
	}
}

// TestPromoteAtJudgesAtItsReading: PromoteAt judges suspicion at the
// reading it is handed, not at the list's clock. A peer suspected until
// two seconds on rises at once when the reading says they have gone.
func TestPromoteAtJudgesAtItsReading(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, clk)
	l.Observe("a")
	l.Observe("b")
	for k := 0; k < SuspectThreshold; k++ {
		l.Fail("b")
	}
	if !l.Suspected("b") {
		t.Fatal("setup: b not suspected")
	}
	l.PromoteAt("b", clk.Now().Add(cooldownFirst))
	if n := met.Get(trace.CtrPromoteHolds); n != 0 {
		t.Fatalf("promote_holds = %d, want 0: the reading is past b's suspicion", n)
	}
	if snap := l.Snapshot(); snap[0] != "b" {
		t.Fatalf("b did not rise: %v", snap)
	}
}

func TestEventsCancelStopsDelivery(t *testing.T) {
	l := NewResponderList(0, nil)
	ch, cancel := subscribe(l)
	l.Observe("a")
	if evs := drain(ch); len(evs) != 1 {
		t.Fatalf("events before cancel = %v", evs)
	}
	cancel()
	l.Observe("b")
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("events after cancel = %v", evs)
	}
}

// TestEventsReattachedSubscriptionStartsClean: a subscription is reused
// from one blocking operation to the next. What the last one left unread
// is not the next one's news, nothing arrives while it is detached, and
// attaching and detaching a warm one allocates nothing.
func TestEventsReattachedSubscriptionStartsClean(t *testing.T) {
	l := NewResponderList(0, nil)
	s := NewSubscription()
	l.Attach(s)
	l.Observe("a") // left unread
	l.Detach(s)
	l.Observe("b") // not for s at all
	l.Attach(s)
	if evs := drain(s.Joins()); len(evs) != 0 {
		t.Fatalf("reattached subscription starts with %v", evs)
	}
	l.Observe("c")
	if evs := drain(s.Joins()); len(evs) != 1 || evs[0] != "c" {
		t.Fatalf("events after reattach = %v, want the one join of c", evs)
	}
	l.Detach(s)
	if allocs := testing.AllocsPerRun(1000, func() { l.Attach(s); l.Detach(s) }); allocs != 0 {
		t.Fatalf("Attach+Detach: %v allocs, want 0", allocs)
	}
}

// Members must be a canonical (sorted) snapshot that keeps suspected and
// demoted peers — replica placement (DESIGN.md §13) is derived from it,
// and a slow peer still holds its replicas — while Revision advances on
// every membership transition so ring caches know when to rebuild.
func TestMembersCanonicalAndRevisionTracksChurn(t *testing.T) {
	l := NewResponderList(0, nil)
	if rev := l.Revision(); rev != 0 {
		t.Fatalf("initial revision = %d", rev)
	}
	l.Observe("c")
	l.Observe("a")
	l.Observe("b")
	got := l.Members()
	want := []wire.Addr{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members not sorted: %v", got)
		}
	}
	rev := l.Revision()
	if rev != 3 {
		t.Fatalf("revision after 3 joins = %d", rev)
	}
	// Suspicion does not change membership (no revision bump, still a
	// member); eviction does.
	for k := 0; k < 10; k++ {
		l.Fail("b")
	}
	if !l.Suspected("b") {
		t.Fatal("b not suspected")
	}
	if got := l.Members(); len(got) != 3 {
		t.Fatalf("suspected peer dropped from members: %v", got)
	}
	if l.Revision() != rev {
		t.Fatalf("suspicion changed revision: %d -> %d", rev, l.Revision())
	}
	l.Evict("b")
	if got := l.Members(); len(got) != 2 {
		t.Fatalf("members after evict = %v", got)
	}
	if l.Revision() <= rev {
		t.Fatalf("revision did not advance on eviction")
	}
}

// TestHedgeDelayIsMedianRTO: the hedge delay is the lower median of the
// sampled entries' retransmission timeouts, ewma + 4·dev. Three identical
// samples d leave ewma d and dev 9d/32, an RTO of 17d/8. An entry under
// the sample minimum does not count, and removing a sampled entry takes
// its RTO out.
func TestHedgeDelayIsMedianRTO(t *testing.T) {
	l := NewResponderList(0, nil, clock.NewVirtual(time.Unix(0, 0)))
	for _, a := range []wire.Addr{"a", "b", "c"} {
		l.Observe(a)
	}
	want := func(step string, d time.Duration) {
		t.Helper()
		if got := l.HedgeDelay(); got != d {
			t.Fatalf("%s: hedge delay %v, want %v", step, got, d)
		}
	}
	want("unsampled", 0)
	feedLatency(l, "a", 8*time.Millisecond, 3)
	want("one sampled entry", 17*time.Millisecond)
	feedLatency(l, "b", 400*time.Millisecond, demoteMinSamples-1)
	want("under the sample minimum", 17*time.Millisecond)
	feedLatency(l, "c", 16*time.Millisecond, 3)
	want("two sampled entries: the lower", 17*time.Millisecond)
	feedLatency(l, "b", 400*time.Millisecond, 1)
	want("three sampled entries: the middle", 34*time.Millisecond)
	l.Evict("c")
	want("c evicted", 17*time.Millisecond)
	l.Depart("a")
	want("a departed", 850*time.Millisecond)
	l.Evict("b")
	want("none left", 0)
}
