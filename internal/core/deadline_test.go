package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// Every per-operation deadline rides the instance's one deadline queue
// (DESIGN.md §7). These tests pin the two halves of that: the hot paths
// arm no runtime timer and stay inside an allocation budget, and each
// class of deadline still expires at its instant on a virtual clock.

// countingClock is the wall clock with every timer it is asked for
// counted.
type countingClock struct {
	clock.Real
	timers atomic.Int64
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.timers.Add(1)
	return c.Real.AfterFunc(d, f)
}

// wallPair is two introduced instances, a and b, on the wall clock over a
// plain memnet, each configured by mutate when given.
func wallPair(t testing.TB, clk clock.Clock, mutate ...func(*Config)) (a, b *Instance) {
	t.Helper()
	net := memnet.New()
	inst := make([]*Instance, 2)
	for k, addr := range []wire.Addr{"a", "b"} {
		ep, err := net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Endpoint: ep, Clock: clk}
		for _, m := range mutate {
			m(&cfg)
		}
		if inst[k], err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	net.ConnectAll()
	t.Cleanup(func() {
		inst[0].Close()
		inst[1].Close()
		net.Close()
	})
	inst[0].list.Observe("b")
	inst[1].list.Observe("a")
	return inst[0], inst[1]
}

// TestRemoteTakeArmsNoRuntimeTimer: a thousand remote probes, a thousand
// direct probes and remote outs, and a thousand served blocking takes whose
// walks would rediscover (ContinuousDiscovery) ask the clock for a handful
// of timers — the queues' own, re-armed once per armed instant, the
// once-a-second sweeps among their entries — where each op used to create
// one to five.
func TestRemoteTakeArmsNoRuntimeTimer(t *testing.T) {
	clk := &countingClock{}
	a, b := wallPair(t, clk, func(c *Config) { c.ContinuousDiscovery = true })
	ctx := context.Background()
	const n = 1000
	before := clk.timers.Load()
	for k := int64(0); k < n; k++ {
		if err := a.Out(req(k), nil); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Inp(ctx, reqTmpl(), nil); err != nil || !ok {
			t.Fatalf("probe %d: ok=%v err=%v", k, ok, err)
		}
	}
	for k := int64(0); k < n; k++ {
		if err := b.OutAt("a", req(k), nil); err != nil {
			t.Fatalf("remote out %d: %v", k, err)
		}
		if _, ok, err := b.InpAt(ctx, "a", reqTmpl(), nil); err != nil || !ok {
			t.Fatalf("direct probe %d: ok=%v err=%v", k, ok, err)
		}
	}
	taken := make(chan error, 1)
	for k := int64(0); k < n; k++ {
		go func() {
			_, err := b.In(ctx, reqTmpl(), longLease())
			taken <- err
		}()
		for waitCount(a) == 0 {
			time.Sleep(20 * time.Microsecond)
		}
		if err := a.Out(req(k), nil); err != nil {
			t.Fatal(err)
		}
		if err := <-taken; err != nil {
			t.Fatalf("blocking take %d: %v", k, err)
		}
	}
	if got := clk.timers.Load() - before; got >= 50 {
		t.Fatalf("%d ops asked the clock for %d timers, want fewer than 50", 4*n, got)
	}
}

// frameLog keeps every frame an endpoint is handed beside a copy of it
// taken at the send.
type frameLog struct {
	mu     sync.Mutex
	sent   []*wire.Message
	copies []wire.Message
}

func (l *frameLog) tap(c *Config) { c.Endpoint = frameTap{c.Endpoint, l} }

func (l *frameLog) keep(m *wire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent = append(l.sent, m)
	l.copies = append(l.copies, *m)
}

// written counts the frames that no longer read as they did when sent.
func (l *frameLog) written() (n, of int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, m := range l.sent {
		if !reflect.DeepEqual(*m, l.copies[k]) {
			n++
		}
	}
	return n, len(l.sent)
}

type frameTap struct {
	transport.Endpoint
	log *frameLog
}

func (e frameTap) Send(to wire.Addr, m *wire.Message) error {
	e.log.keep(m)
	return e.Endpoint.Send(to, m)
}

func (e frameTap) Multicast(m *wire.Message) (int, error) {
	e.log.keep(m)
	return e.Endpoint.Multicast(m)
}

// TestSentFramesNeverWritten: no frame is written once it is handed to the
// transport — each retransmission, re-arm and rediscovery sends a fresh
// one stamped with the time left. Driven here: a logical probe, a direct
// probe and a remote out into a silent peer (RetryAttempts transmissions
// each), a blocking take's rediscoveries, and its re-arm toward a peer
// that walks in with the tuple. The two direct ops also pin the walk's
// rule for a nonblocking op: it is over once nobody is left to answer,
// not when its lease ends.
func TestSentFramesNeverWritten(t *testing.T) {
	var frames frameLog
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) {
		frames.tap(c)
		c.ContinuousDiscovery = true
		c.RediscoverInterval = 100 * time.Millisecond
	})
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	b.list.Observe("a")
	ctx := context.Background()
	unwritten := func(after string) {
		t.Helper()
		if n, of := frames.written(); n != 0 {
			t.Fatalf("after %s: %d of %d sent frames were written after their send", after, n, of)
		}
	}

	r.net.SetLoss(1.0)
	probes := []struct {
		name   string
		direct bool // over once its one contact is given up, long before its lease
		fails  bool // an OutAt nobody acked is an error; a probe nobody answered is not
		run    func() error
	}{
		{"Inp", false, false, func() error { _, _, err := b.Inp(ctx, reqTmpl(), opLease(2*time.Second)); return err }},
		{"InpAt", true, false, func() error { _, _, err := b.InpAt(ctx, "a", reqTmpl(), opLease(time.Hour)); return err }},
		{"OutAt", true, true, func() error { return b.OutAt("a", req(9), opLease(time.Hour)) }},
	}
	for _, p := range probes {
		retries, start := r.met.Get(trace.CtrRetries), r.clk.Now()
		done := make(chan error, 1)
		go func() { done <- p.run() }()
		var err error
		advanceUntil(t, r, 50*time.Millisecond, p.name+" into total loss returned", func() bool {
			select {
			case err = <-done:
				return true
			default:
				return false
			}
		})
		if (err != nil) != p.fails {
			t.Fatalf("%s into total loss: err = %v", p.name, err)
		}
		if n := r.met.Get(trace.CtrRetries) - retries; n != int64(b.cfg.RetryAttempts-1) {
			t.Fatalf("%s: %d retransmissions, want %d", p.name, n, b.cfg.RetryAttempts-1)
		}
		if p.direct && r.clk.Now().Sub(start) > time.Minute {
			t.Fatalf("%s to a silent peer waited %v, its lease out", p.name, r.clk.Now().Sub(start))
		}
		unwritten(p.name + "'s retransmissions")
	}
	r.net.SetLoss(0)

	rounds := r.met.Get(trace.CtrDiscoverRounds)
	got := make(chan Result, 1)
	go func() {
		res, _ := b.In(ctx, reqTmpl(), longLease())
		got <- res
	}()
	eventually(t, "the take parked at a", func() bool { return waitCount(a) == 1 })
	advanceUntil(t, r, 50*time.Millisecond, "two rediscoveries", func() bool {
		return r.met.Get(trace.CtrDiscoverRounds) >= rounds+2
	})
	unwritten("the rediscoveries")
	ep, err := r.net.Attach("c")
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetVisible("b", "c", true)
	cfg := Config{Endpoint: ep, Clock: r.clk, Metrics: r.met}
	frames.tap(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-got:
		if res.From != "c" {
			t.Fatalf("take served by %q, want the re-armed c", res.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the re-arm never reached c")
	}
	if r.met.Get(trace.CtrRearms) == 0 {
		t.Fatal("no re-arm counted")
	}
	unwritten("the re-arm")
}

// remoteTakeAllocBudget is two objects above what an Out at one node plus
// a remote Inp from the other measures since the take's lease lives in
// its walk's object (9 by AllocsPerRun; 10 before that, 11 before the
// responder admitted an immediate serve without minting a lease, 14
// before the stored entry became its own hold, the ack rode the
// responder's pending hold and the take's op frame shared one object with
// its accept record, 15 before the walk stopped asking its lease for a
// Done channel, 24 before a received frame became one object, 42 before
// the deadline queue). A failure here is the next per-op allocation
// showing up in `go test`, not three PRs later in the benchmark. The race
// detector's sync.Pool drops a quarter of what is put back, so pooled op
// states and buffers are re-made now and then: 14 measured.
const (
	remoteTakeAllocBudget      = 11
	remoteTakeAllocBudgetLeaky = 16
)

// poolsHold reports whether sync.Pool keeps what it is given, which it
// does not under the race detector.
func poolsHold() bool {
	var p sync.Pool
	x := new(int)
	for k := 0; k < 64; k++ {
		p.Put(x)
		if p.Get() == nil {
			return false
		}
	}
	return true
}

func TestRemoteTakeAllocBudget(t *testing.T) {
	a, b := wallPair(t, nil)
	ctx := context.Background()
	tup, tmpl := req(1), reqTmpl()
	pair := func() {
		if err := a.Out(tup, nil); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Inp(ctx, tmpl, nil); err != nil || !ok {
			t.Fatalf("take: ok=%v err=%v", ok, err)
		}
	}
	for k := 0; k < 200; k++ {
		pair() // pools, heaps and maps reach their steady size
	}
	budget := float64(remoteTakeAllocBudget)
	if !poolsHold() {
		budget = remoteTakeAllocBudgetLeaky
	}
	if allocs := testing.AllocsPerRun(2000, pair); allocs > budget {
		t.Fatalf("Out + remote Inp: %.0f allocs, budget %.0f", allocs, budget)
	}
}

// TestOpStatesStayWithTheirInstance: an op state embeds its entry on its
// instance's deadline queue, and a firing that queue collected can still
// touch the state after its op closed. No other instance may draw it.
func TestOpStatesStayWithTheirInstance(t *testing.T) {
	a, b := wallPair(t, nil)
	used := make(map[*opState]bool)
	for k := 0; k < 100; k++ {
		st, err := a.openOp()
		if err != nil {
			t.Fatal(err)
		}
		used[st] = true
		a.closeOp(st)
		if st, err = b.openOp(); err != nil {
			t.Fatal(err)
		}
		b.closeOp(st)
		if used[st] {
			t.Fatalf("round %d: b drew an op state a had used", k)
		}
	}
}

// TestHoldGraceExpiresAtItsInstant: ttl + hold grace, not a millisecond
// sooner, and counted as a grace expiry.
func TestHoldGraceExpiresAtItsInstant(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	if err := a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	h, ok := a.LocalSpace().Hold(reqTmpl())
	if !ok {
		t.Fatal("setup: hold failed")
	}
	sweeps := a.deadlines.Len() // the orphan sweep's entry
	a.registerHold(h, time.Second, waitKey{from: "gone", id: 1}, a.clk.Now())
	r.clk.Advance(time.Second + a.tm.holdGrace - time.Millisecond)
	if a.LocalSpace().Count() != 1 || r.met.Get(trace.CtrHoldGraceExpired) != 0 {
		t.Fatal("hold reinstated before ttl + grace")
	}
	r.clk.Advance(time.Millisecond)
	if a.LocalSpace().Count() != 2 || r.met.Get(trace.CtrHoldGraceExpired) != 1 {
		t.Fatalf("at ttl + grace: count %d, grace expiries %d, want 2 and 1",
			a.LocalSpace().Count(), r.met.Get(trace.CtrHoldGraceExpired))
	}
	if n := a.deadlines.Len() - sweeps; n != 0 {
		t.Fatalf("%d deadlines left behind", n)
	}
}

// sendLog notes the clock reading of every frame of one type an endpoint
// is asked to send, and drops the first `drop` of them, reporting success.
type sendLog struct {
	typ  wire.Type
	mu   sync.Mutex
	drop int
	at   []time.Time
}

func (l *sendLog) tap(c *Config) { c.Endpoint = sendTap{c.Endpoint, c.Clock, l} }

func (l *sendLog) sent() []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Time(nil), l.at...)
}

type sendTap struct {
	transport.Endpoint
	clk clock.Clock
	log *sendLog
}

func (e sendTap) Send(to wire.Addr, m *wire.Message) error {
	if m.Type == e.log.typ {
		e.log.mu.Lock()
		e.log.at = append(e.log.at, e.clk.Now())
		drop := e.log.drop > 0
		if drop {
			e.log.drop--
		}
		e.log.mu.Unlock()
		if drop {
			return nil
		}
	}
	return e.Endpoint.Send(to, m)
}

// inRetryWait reports whether gap is a possible retryWait(k) at i:
// ContactTimeout + backoff·2^(k-1) plus up to one backoff of jitter.
func inRetryWait(i *Instance, k int, gap time.Duration) bool {
	lo := i.cfg.ContactTimeout + i.tm.backoff<<(k-1)
	return gap >= lo && gap < lo+i.tm.backoff
}

// TestAcceptRetransmittedUntilAcked: two accepts are lost; each
// retransmission goes out retryWait(attempt) after the transmission
// before it, from inside the queue's firing, and the ack to the third
// ends them.
func TestAcceptRetransmittedUntilAcked(t *testing.T) {
	accepts := &sendLog{typ: wire.TAccept, drop: 2}
	r := newRig(t, []wire.Addr{"a", "b"}, accepts.tap)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.Inp(context.Background(), reqTmpl(), nil); err != nil || !ok {
		t.Fatalf("take: ok=%v err=%v", ok, err)
	}
	// Both retransmissions fall inside this one advance (at most 750ms in)
	// and a fourth could not (at least 1100ms in).
	r.clk.Advance(800 * time.Millisecond)
	sent := accepts.sent()
	if len(sent) != 3 {
		t.Fatalf("%d accept transmissions in 800ms with two lost, want 3", len(sent))
	}
	for k := 1; k <= 2; k++ {
		if gap := sent[k].Sub(sent[k-1]); !inRetryWait(b, k, gap) {
			t.Fatalf("retransmission %d came %v after the transmission before it, not a retryWait(%d)", k, gap, k)
		}
	}
	eventually(t, "the third accept's ack settles it", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.pendAccepts) == 0
	})
	r.clk.Advance(time.Hour)
	if got := len(accepts.sent()); got != 3 {
		t.Fatalf("%d accept transmissions after the ack, want 3", got)
	}
	if n := r.met.Get(trace.CtrAcceptRetransmits); n != 2 {
		t.Fatalf("ops.accept_retransmits = %d, want 2", n)
	}
	if a.LocalSpace().Count() != 1 {
		t.Fatal("the accepted tuple came back")
	}
}

// nextTimer is the virtual clock's earliest pending timer. While a walk
// waits on a contact, with nothing else due as soon, that is the instance
// queue's one timer, armed for the walk's next tick.
func nextTimer(t *testing.T, clk *clock.Virtual) time.Time {
	t.Helper()
	at, ok := clk.NextDeadline()
	if !ok {
		t.Fatal("no timer pending")
	}
	return at
}

// quietSweeps keeps the rig's sweeps out of nextTimer's way: an hour on,
// and the queue timers armed for their first runs fired empty.
func quietSweeps(r *rig) {
	for _, inst := range r.inst {
		inst.orphans.SetPeriod(time.Hour)
	}
	r.clk.Advance(time.Second)
}

// TestContactRetriedThenGivenUp: a probe into total loss retransmits at
// retryWait(1) and retryWait(2) after the transmission before, gives the
// contact up retryWait(3) after the last, and counts three timeouts.
func TestContactRetriedThenGivenUp(t *testing.T) {
	ops := &sendLog{typ: wire.TOp}
	r := newRig(t, []wire.Addr{"a", "b"}, ops.tap)
	quietSweeps(r)
	r.net.ConnectAll()
	b := r.inst["b"]
	b.list.Observe("a")
	r.net.SetLoss(1.0)
	done := make(chan bool, 1)
	go func() {
		_, ok, _ := b.Inp(context.Background(), reqTmpl(), opLease(time.Minute))
		done <- ok
	}()
	for k := 1; k <= b.cfg.RetryAttempts; k++ {
		eventually(t, "transmission reached the wire", func() bool { return len(ops.sent()) == k })
		// The tick is scheduled after the send; wait for the timer too.
		var at time.Time
		eventually(t, "contact timeout armed", func() bool {
			at = nextTimer(t, r.clk)
			return at.After(r.clk.Now())
		})
		if gap := at.Sub(ops.sent()[k-1]); !inRetryWait(b, k, gap) {
			t.Fatalf("contact timeout %d armed %v after its transmission, not a retryWait(%d)", k, gap, k)
		}
		r.clk.AdvanceTo(at)
		eventually(t, "timeout counted", func() bool { return r.met.Get(trace.CtrContactTimeouts) == int64(k) })
	}
	if got, retries := len(ops.sent()), r.met.Get(trace.CtrRetries); got != 3 || retries != 2 {
		t.Fatalf("%d transmissions, net.retries = %d; want 3 and 2 before the give-up", got, retries)
	}
	r.clk.Advance(2 * time.Minute) // the lease ends the wait for the multicast's audience
	select {
	case ok := <-done:
		if ok {
			t.Fatal("a probe into total loss found a tuple")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe never returned")
	}
	if got := len(ops.sent()); got != 3 {
		t.Fatalf("%d transmissions to a contact given up after 3", got)
	}
}

// TestHedgeFiresAtTheHedgeDelay: with no RTT sample yet the hedge delay
// is the contact timeout, sooner than the first retransmission; the walk's
// one tick is armed for exactly that instant and the hedge goes out on it.
// The sweeps are kept off the queue, or the wait for the tick could read
// the orphan sweep's first run instead.
func TestHedgeFiresAtTheHedgeDelay(t *testing.T) {
	r := newRig(t, []wire.Addr{"req", "empty", "holder"}, nil)
	quietSweeps(r)
	r.net.ConnectAll()
	req0, empty, holder := r.inst["req"], r.inst["empty"], r.inst["holder"]
	if err := holder.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	req0.list.Observe("empty")
	req0.list.Observe("holder")
	start := r.clk.Now()
	got := make(chan Result, 1)
	go func() {
		res, _ := req0.In(context.Background(), reqTmpl(), opLease(10*time.Second))
		got <- res
	}()
	eventually(t, "first contact parked at the empty responder", func() bool { return waitCount(empty) == 1 })
	var at time.Time
	eventually(t, "hedge tick armed", func() bool {
		at = nextTimer(t, r.clk)
		return at.After(start)
	})
	if want := start.Add(req0.cfg.ContactTimeout); !at.Equal(want) {
		t.Fatalf("tick armed for %v after the first contact, want the hedge delay %v", at.Sub(start), want.Sub(start))
	}
	r.clk.AdvanceTo(at.Add(-time.Millisecond))
	if n := req0.Gray().Hedges; n != 0 {
		t.Fatalf("%d hedges a millisecond before the hedge delay", n)
	}
	r.clk.AdvanceTo(at)
	select {
	case res := <-got:
		if res.From != "holder" {
			t.Fatalf("tuple came from %q, want the hedged contact", res.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hedged take never returned")
	}
	if g := req0.Gray(); g.Hedges != 1 || g.HedgeWins != 1 {
		t.Fatalf("hedges %d, wins %d, want 1 and 1", g.Hedges, g.HedgeWins)
	}
}
