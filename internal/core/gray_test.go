package core

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// Gray-failure tolerance tests (DESIGN.md §11): hedged blocking lookups,
// the hedge budget and wide fallback, busy-reply suppression, and the
// governor's queue-delay degradation probe. The hedging tests run on the
// wall clock over a healthy memnet — determinism comes from rigging the
// responder-list order directly, not from fault timing.

func waitCount(i *Instance) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.waits)
}

// cancelLog records the destination of every unicast operation cancel
// (replica invalidations ride TCancel too and are left out), by sender.
type cancelLog struct {
	mu sync.Mutex
	to map[wire.Addr][]wire.Addr
}

// tap wraps an instance's endpoint so its cancels land in the log.
func (l *cancelLog) tap(c *Config) { c.Endpoint = cancelTap{c.Endpoint, l} }

// sent returns, sorted, where from has sent cancels so far.
func (l *cancelLog) sent(from wire.Addr) []wire.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]wire.Addr(nil), l.to[from]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type cancelTap struct {
	transport.Endpoint
	log *cancelLog
}

func (e cancelTap) Send(to wire.Addr, m *wire.Message) error {
	if m.Type == wire.TCancel && m.ReplSeq == 0 {
		e.log.mu.Lock()
		if e.log.to == nil {
			e.log.to = make(map[wire.Addr][]wire.Addr)
		}
		e.log.to[m.From] = append(e.log.to[m.From], to)
		e.log.mu.Unlock()
	}
	return e.Endpoint.Send(to, m)
}

// sameAddrs reports whether got is exactly want (both sorted).
func sameAddrs(got []wire.Addr, want ...wire.Addr) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if got[k] != want[k] {
			return false
		}
	}
	return true
}

// grayRig builds instances on the wall clock with hedge-friendly timers
// and empty responder lists (no ConnectAll until after boot, so boot
// hellos reach nobody and each test scripts its own contact order).
func grayRig(t *testing.T, addrs []wire.Addr, mutate func(*Config)) *chaosRig {
	t.Helper()
	return newChaosRig(t, addrs, memnet.Faults{}, func(c *Config) {
		c.RetryAttempts = 3
		if mutate != nil {
			mutate(c)
		}
	})
}

func hourLease() lease.Requester {
	return lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 10})
}

func opLease(d time.Duration) lease.Requester {
	return lease.Flexible(lease.Terms{Duration: d, MaxRemotes: 64})
}

// TestHedgedLookupFirstWinnerReleasesLoser is the settlement test
// (satellite 3, run under -race in CI): the first contact is an empty
// responder that registers a silent wait; the hedge fires at the
// next-ranked responder, which holds the tuple and wins; and the loser's
// remote wait must be withdrawn by the settlement cancel — no wait may
// leak at either responder. The cancel goes to the loser only: the
// winner's wait ended with its own found reply.
func TestHedgedLookupFirstWinnerReleasesLoser(t *testing.T) {
	var cancels cancelLog
	r := grayRig(t, []wire.Addr{"req", "slow", "holder"}, cancels.tap)
	req0, slow, holder := r.inst["req"], r.inst["slow"], r.inst["holder"]

	if err := holder.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	// Contact order [slow, holder]: Observe appends bottom-up.
	req0.list.Observe("slow")
	req0.list.Observe("holder")

	res, err := req0.In(context.Background(), reqTmpl(), opLease(10*time.Second))
	if err != nil {
		t.Fatalf("hedged in: %v", err)
	}
	if res.From != "holder" {
		t.Fatalf("tuple came from %s, want holder", res.From)
	}
	if v, _ := res.Tuple.IntAt(1); v != 1 {
		t.Fatalf("wrong tuple: %v", res.Tuple)
	}

	// Settlement cancels are sent before In returns.
	if got := cancels.sent("req"); !sameAddrs(got, "slow") {
		t.Fatalf("cancels went to %v, want the hedge's loser [slow] and not the winner", got)
	}
	g := req0.Gray()
	if g.Hedges == 0 {
		t.Fatal("no hedge fired for a silent first contact")
	}
	if g.HedgeWins == 0 {
		t.Fatal("hedged contact won but was not counted")
	}
	// The loser's blocking wait must be released by the cancel, not leak
	// until its serve lease expires.
	eventually(t, "loser's remote wait withdrawn", func() bool {
		return waitCount(slow) == 0 && waitCount(holder) == 0
	})
	// Exactly-once: the holder gave up exactly the one tuple (its
	// space-info tuple remains), and nobody else ever held it.
	if n := holder.LocalSpace().Count(); n != 1 {
		t.Fatalf("holder space count = %d after settled take", n)
	}
}

// TestHedgeBudgetThenWideFallback walks a list of three empty responders
// with hedgeMax=2: two staged hedges, then the next firing contacts
// everyone left at once so the walk still completes.
func TestHedgeBudgetThenWideFallback(t *testing.T) {
	addrs := []wire.Addr{"req", "e1", "e2", "e3", "holder"}
	var cancels cancelLog
	r := grayRig(t, addrs, cancels.tap)
	req0 := r.inst["req"]

	if err := r.inst["holder"].Out(req(7), hourLease()); err != nil {
		t.Fatal(err)
	}
	for _, a := range []wire.Addr{"e1", "e2", "e3", "holder"} {
		req0.list.Observe(a)
	}

	res, err := req0.In(context.Background(), reqTmpl(), opLease(15*time.Second))
	if err != nil {
		t.Fatalf("in: %v", err)
	}
	if res.From != "holder" {
		t.Fatalf("tuple came from %s, want holder", res.From)
	}
	// Both staged hedges and the wide fallback's contact lost: each still
	// holds a wait and each is told the op is over. The winner is not.
	if got := cancels.sent("req"); !sameAddrs(got, "e1", "e2", "e3") {
		t.Fatalf("cancels went to %v, want every loser [e1 e2 e3] and not the winner", got)
	}
	g := req0.Gray()
	if g.Hedges != hedgeMax {
		t.Fatalf("hedges = %d, want exactly hedgeMax=2 before wide fallback", g.Hedges)
	}
	for _, a := range addrs[1:] {
		a := a
		eventually(t, "waits drained at "+string(a), func() bool {
			return waitCount(r.inst[a]) == 0
		})
	}
}

// TestBusyReplySuppressesHedging scripts the first contact as a raw
// endpoint that answers with a governor-style busy refusal: hedging must
// stop (an overloaded neighbourhood wants fewer contacts, not more) while
// the retry-exhaustion walk still reaches the holder.
func TestBusyReplySuppressesHedging(t *testing.T) {
	r := grayRig(t, []wire.Addr{"req", "holder"}, nil)
	req0, holder := r.inst["req"], r.inst["holder"]

	busyEP, err := r.net.Attach("busy")
	if err != nil {
		t.Fatal(err)
	}
	defer busyEP.Close()
	r.net.ConnectAll()
	go func() {
		for m := range busyEP.Recv() {
			if m.Type == wire.TOp {
				_ = busyEP.Send(m.From, &wire.Message{
					Type: wire.TResult, ID: m.ID, From: "busy", Found: false, Busy: true,
				})
			}
		}
	}()

	if err := holder.Out(req(3), hourLease()); err != nil {
		t.Fatal(err)
	}
	req0.list.Observe("busy")
	req0.list.Observe("holder")

	res, err := req0.In(context.Background(), reqTmpl(), opLease(15*time.Second))
	if err != nil {
		t.Fatalf("in: %v", err)
	}
	if res.From != "holder" {
		t.Fatalf("tuple came from %s, want holder", res.From)
	}
	g := req0.Gray()
	if g.HedgeSuppressed == 0 {
		t.Fatal("busy reply did not suppress hedging")
	}
	if g.Hedges != 0 {
		t.Fatalf("hedges = %d after busy suppression, want 0", g.Hedges)
	}
	// The busy refusal carries no timing signal: it must not have fed the
	// busy peer's latency EWMA.
	if _, samples := req0.list.Latency("busy"); samples != 0 {
		t.Fatalf("busy reply fed the latency EWMA (%d samples)", samples)
	}
}

// TestHedgeDisabledWalksList pins the DisableHedge escape hatch: the walk
// still completes (via retry exhaustion), just without hedged contacts.
func TestHedgeDisabledWalksList(t *testing.T) {
	r := grayRig(t, []wire.Addr{"req", "empty", "holder"}, func(c *Config) {
		c.DisableHedge = true
	})
	req0 := r.inst["req"]
	if err := r.inst["holder"].Out(req(9), hourLease()); err != nil {
		t.Fatal(err)
	}
	req0.list.Observe("empty")
	req0.list.Observe("holder")

	res, err := req0.In(context.Background(), reqTmpl(), opLease(15*time.Second))
	if err != nil {
		t.Fatalf("in: %v", err)
	}
	if res.From != "holder" {
		t.Fatalf("tuple came from %s, want holder", res.From)
	}
	if g := req0.Gray(); g.Hedges != 0 {
		t.Fatalf("hedges fired with DisableHedge: %d", g.Hedges)
	}
}

// TestQueueDelayProbeFlipsDegraded drives the governor's queue-delay
// EWMA past the threshold on a virtual clock and checks the degraded
// self-report flips on and decays off.
func TestQueueDelayProbeFlipsDegraded(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	met := &trace.Metrics{}
	net := memnet.New(memnet.WithMetrics(met), memnet.WithClock(clk))
	defer net.Close()
	ep, err := net.Attach("n")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{Endpoint: ep, Metrics: met, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	if inst.Degraded() {
		t.Fatal("fresh node degraded")
	}
	// Threshold 250ms, EWMA gain 1/8: eight 800ms readings push
	// the smoothed delay well past the line.
	for k := 0; k < 8; k++ {
		inst.gov.noteQueueDelay(800 * time.Millisecond)
	}
	if !inst.Degraded() {
		t.Fatal("sustained queue delay did not flip Degraded")
	}
	if met.Get(trace.CtrGovQueueStalls) == 0 {
		t.Fatal("queue stalls not counted")
	}
	if rep := inst.Governor(); rep.QueueDelay < 250*time.Millisecond {
		t.Fatalf("report QueueDelay = %v, want >= threshold", rep.QueueDelay)
	}

	// The self-report decays once the signal stops.
	clk.Advance(degradeDecay + time.Second)
	if inst.Degraded() {
		t.Fatal("degraded self-report did not decay")
	}
}

// TestDegradedRidesAnnounceFrames is the end-to-end plumbing check: a
// node whose probe has flipped advertises Degraded on its announce
// replies, the requester's Spaces() surfaces it, and the responder list
// deprioritizes the peer without dropping it.
func TestDegradedRidesAnnounceFrames(t *testing.T) {
	r := grayRig(t, []wire.Addr{"a", "b", "c"}, nil)
	a, b := r.inst["a"], r.inst["b"]

	// b self-diagnoses slow service.
	for k := 0; k < 8; k++ {
		b.gov.noteQueueDelay(800 * time.Millisecond)
	}
	if !b.Degraded() {
		t.Fatal("probe did not flip b")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	infos, err := a.Spaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[wire.Addr]bool{}
	for _, in := range infos {
		seen[in.Addr] = true
		switch in.Addr {
		case "b":
			if !in.Degraded {
				t.Fatal("b's announce did not carry Degraded")
			}
		case "c":
			if in.Degraded {
				t.Fatal("healthy c reported Degraded")
			}
		}
	}
	if !seen["b"] || !seen["c"] {
		t.Fatalf("discovery missed peers: %v", infos)
	}
	// The self-report lands in a's health layer: b is demoted — ranked
	// behind healthy peers — but still present.
	if !a.list.Demoted("b") {
		t.Fatal("self-reported degradation did not demote b")
	}
	if a.list.Demoted("c") {
		t.Fatal("healthy c demoted")
	}
	snap := a.list.Snapshot()
	if len(snap) == 0 || snap[len(snap)-1] != "b" {
		t.Fatalf("degraded b not ranked last: %v", snap)
	}
}
