package discovery

import (
	"fmt"
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
	if l.Position("c") != 2 || l.Position("zz") != -1 {
		t.Fatal("Position wrong")
	}
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
	if l.Position("stable") != 2 {
		t.Fatalf("setup: stable at %d", l.Position("stable"))
	}
	l.Evict("flaky1")
	l.Evict("flaky2")
	if l.Position("stable") != 0 {
		t.Fatalf("stable at %d after attrition, want 0", l.Position("stable"))
	}
	// New responders land below the stable one.
	l.Observe("newcomer")
	if l.Position("newcomer") != 1 {
		t.Fatalf("newcomer at %d", l.Position("newcomer"))
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

func TestClear(t *testing.T) {
	l := NewResponderList(0, nil)
	l.Observe("a")
	l.Clear()
	if l.Len() != 0 || l.Contains("a") {
		t.Fatal("Clear incomplete")
	}
	l.Observe("a") // usable after clear
	if l.Len() != 1 {
		t.Fatal("unusable after Clear")
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
	l := NewResponderList(0, met, WithClock(clk),
		WithHealthPolicy(2, time.Second, 8*time.Second))
	l.Observe("good")
	l.Observe("flappy")
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
	l := NewResponderList(0, nil, WithClock(clk),
		WithHealthPolicy(1, time.Second, 4*time.Second))
	l.Observe("x")
	l.Fail("x") // suspect for 1s
	if !l.Suspected("x") {
		t.Fatal("not suspected")
	}
	clk.Advance(time.Second)
	if l.Suspected("x") {
		t.Fatal("suspicion did not decay")
	}
	if snap := l.Snapshot(); len(snap) != 1 {
		t.Fatalf("half-open entry missing: %v", snap)
	}
	// Half-open failure re-suspends with doubled cooldown (2s).
	l.Fail("x")
	clk.Advance(time.Second)
	if !l.Suspected("x") {
		t.Fatal("cooldown did not double")
	}
	clk.Advance(time.Second)
	if l.Suspected("x") {
		t.Fatal("second suspicion did not decay")
	}
	// Cooldown doubling is capped at 4s: fail 3 more times, each
	// suspension is at most 4s.
	l.Fail("x")
	l.Fail("x")
	clk.Advance(4 * time.Second)
	if l.Suspected("x") {
		t.Fatal("cooldown exceeded cap")
	}
}

func TestSuccessRestoresHealth(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	l := NewResponderList(0, nil, WithClock(clk),
		WithHealthPolicy(2, time.Second, 8*time.Second))
	l.Observe("x")
	l.Fail("x")
	l.Fail("x")
	if !l.Suspected("x") {
		t.Fatal("not suspected")
	}
	l.Success("x")
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
	l.Success("ghost")
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
	l := NewResponderList(3, nil, WithHealthPolicy(1, time.Minute, time.Minute))
	l.Observe("a")
	l.Observe("b")
	l.Observe("c")
	l.Fail("b")
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
func subscribe(l *ResponderList) (<-chan Event, func()) {
	s := NewSubscription()
	l.Attach(s)
	return s.Events(), func() { l.Detach(s) }
}

// drain pulls every immediately available event off ch.
func drain(ch <-chan Event) []Event {
	var out []Event
	for {
		select {
		case ev := <-ch:
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestEventsJoinLeaveEpochs(t *testing.T) {
	met := &trace.Metrics{}
	l := NewResponderList(0, met)
	ch, cancel := subscribe(l)
	defer cancel()

	l.Observe("a")
	l.Observe("b")
	evs := drain(ch)
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0] != (Event{Kind: EventJoin, Addr: "a", Epoch: 1}) {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Addr != "b" || evs[1].Kind != EventJoin || evs[1].Epoch != 1 {
		t.Fatalf("second event = %+v", evs[1])
	}

	// Re-observing a present responder is not a transition: no event.
	l.Observe("a")
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("re-observe emitted %v", evs)
	}

	l.Evict("a")
	evs = drain(ch)
	if len(evs) != 1 || evs[0] != (Event{Kind: EventLeave, Addr: "a", Epoch: 1}) {
		t.Fatalf("evict events = %v", evs)
	}

	// Rejoin: the epoch is monotonic per peer.
	l.Observe("a")
	evs = drain(ch)
	if len(evs) != 1 || evs[0] != (Event{Kind: EventJoin, Addr: "a", Epoch: 2}) {
		t.Fatalf("rejoin events = %v", evs)
	}
	if l.Epoch("a") != 2 || l.Epoch("b") != 1 || l.Epoch("zz") != 0 {
		t.Fatalf("epochs a=%d b=%d zz=%d", l.Epoch("a"), l.Epoch("b"), l.Epoch("zz"))
	}
	if j, lv := met.Get(trace.CtrVisJoins), met.Get(trace.CtrVisLeaves); j != 3 || lv != 1 {
		t.Fatalf("counts joins=%d leaves=%d", j, lv)
	}
}

func TestEventsPromoteDepartClear(t *testing.T) {
	l := NewResponderList(0, nil)
	ch, cancel := subscribe(l)
	defer cancel()

	l.Promote("a") // absent: join + move to top
	evs := drain(ch)
	if len(evs) != 1 || evs[0].Kind != EventJoin || evs[0].Addr != "a" {
		t.Fatalf("promote events = %v", evs)
	}
	l.Promote("a") // present: no transition
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("re-promote emitted %v", evs)
	}

	l.Observe("b")
	drain(ch)
	l.Depart("b")
	evs = drain(ch)
	if len(evs) != 1 || evs[0] != (Event{Kind: EventLeave, Addr: "b", Epoch: 1}) {
		t.Fatalf("depart events = %v", evs)
	}

	l.Observe("c")
	drain(ch)
	l.Clear()
	evs = drain(ch)
	if len(evs) != 2 {
		t.Fatalf("clear events = %v", evs)
	}
	for _, ev := range evs {
		if ev.Kind != EventLeave {
			t.Fatalf("clear emitted %+v", ev)
		}
	}
}

func TestEventsAttritionEvictionEmitsLeave(t *testing.T) {
	l := NewResponderList(2, nil)
	l.Observe("a")
	l.Observe("b")
	ch, cancel := subscribe(l)
	defer cancel()
	l.Observe("c") // bottom entry b is evicted to make room
	evs := drain(ch)
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Kind != EventLeave || evs[0].Addr != "b" {
		t.Fatalf("expected leave(b) first, got %+v", evs[0])
	}
	if evs[1].Kind != EventJoin || evs[1].Addr != "c" {
		t.Fatalf("expected join(c) second, got %+v", evs[1])
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
	l := NewResponderList(0, met, WithClock(clk))
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

// TestLatencySampleDoesNotAllocate pins the outlier check, which runs
// under the list lock on every reply: the median comes from a scratch
// slice kept on the list, not from a fresh one sorted through reflection.
func TestLatencySampleDoesNotAllocate(t *testing.T) {
	l := NewResponderList(0, nil, WithClock(clock.NewVirtual(time.Unix(0, 0))))
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
	l := NewResponderList(0, nil, WithClock(clk))
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
	l := NewResponderList(0, met, WithClock(clk),
		WithLatencyPolicy(4, 3, 3, time.Hour, time.Hour)) // cooldown never lapses
	l.Observe("slow")
	l.Observe("fast")
	feedLatency(l, "fast", 2*time.Millisecond, 4)
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	if !l.Demoted("slow") {
		t.Fatal("setup: not demoted")
	}
	// Fast samples pull the EWMA back under the recovery line (2x median)
	// well before the hour-long cooldown lapses.
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
	l := NewResponderList(0, nil, WithClock(clk),
		WithLatencyPolicy(4, 3, 3, time.Second, 8*time.Second))
	l.Observe("slow")
	l.Observe("fast")
	feedLatency(l, "fast", 2*time.Millisecond, 4)
	feedLatency(l, "slow", 100*time.Millisecond, 4)
	if !l.Demoted("slow") {
		t.Fatal("setup: not demoted")
	}
	clk.Advance(time.Second)
	if l.Demoted("slow") {
		t.Fatal("demotion did not lapse")
	}
	// Still slow on the next sample: re-demoted with a doubled cooldown.
	l.ObserveLatency("slow", 100*time.Millisecond)
	clk.Advance(time.Second)
	if !l.Demoted("slow") {
		t.Fatal("re-demotion cooldown did not double")
	}
}

func TestSlowStrikesDemote(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, WithClock(clk))
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
	l := NewResponderList(0, met, WithClock(clk))
	l.Observe("sick")
	l.Observe("well")
	l.ObserveDegraded("sick", true)
	if !l.Demoted("sick") {
		t.Fatal("self-report did not demote")
	}
	if snap := l.Snapshot(); len(snap) != 2 || snap[0] != "well" || snap[1] != "sick" {
		t.Fatalf("snapshot = %v", snap)
	}
	// A healthy announce clears it immediately.
	l.ObserveDegraded("sick", false)
	if l.Demoted("sick") {
		t.Fatal("healthy report did not clear degradation")
	}
	// Without a refresh the flag ages out on its own.
	l.ObserveDegraded("sick", true)
	clk.Advance(DefaultDegradedTTL)
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
	l := NewResponderList(0, met, WithClock(clk),
		WithHealthPolicy(1, time.Second, 8*time.Second))
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
	l.Fail("healthy2")
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
// one second on rises at once when the reading says that second has gone.
func TestPromoteAtJudgesAtItsReading(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	l := NewResponderList(0, met, WithClock(clk), WithHealthPolicy(1, time.Second, 8*time.Second))
	l.Observe("a")
	l.Observe("b")
	l.Fail("b")
	if !l.Suspected("b") {
		t.Fatal("setup: b not suspected")
	}
	l.PromoteAt("b", clk.Now().Add(2*time.Second))
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
	if evs := drain(s.Events()); len(evs) != 0 {
		t.Fatalf("reattached subscription starts with %v", evs)
	}
	l.Observe("c")
	if evs := drain(s.Events()); len(evs) != 1 || evs[0].Addr != "c" {
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
