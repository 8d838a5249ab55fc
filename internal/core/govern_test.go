package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// countRequests counts i's live request records that pred selects.
func countRequests(i *Instance, pred func(request) bool) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, e := range i.requests {
		if pred(e) {
			n++
		}
	}
	return n
}

// countServed counts i's finished request records that pred selects.
func countServed(i *Instance, pred func(finished) bool) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	s, n := &i.served, 0
	for k := 0; k < s.n; k++ {
		if f := s.ring[(s.tail+k)%len(s.ring)]; f.kind != ansNone && pred(f) {
			n++
		}
	}
	return n
}

// quiesceServe waits until no request is admitted (queued or executing)
// and the serve queue is empty. Workers run on real goroutines regardless
// of the virtual clock, so this polls real time.
func quiesceServe(t *testing.T, is ...*Instance) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, i := range is {
		for {
			busy := countRequests(i, func(e request) bool { return e.state == reqAdmitted })
			if busy == 0 && len(i.gov.queue) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("governor did not quiesce")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// waitsLen counts the blocking waits i serves: parked, or registered by an
// op still running.
func waitsLen(i *Instance) int {
	return countRequests(i, func(e request) bool { return e.wait != nil })
}

// drainInbox empties a raw endpoint's receive channel.
func drainInbox(ep transport.Endpoint) []*wire.Message {
	var out []*wire.Message
	for {
		select {
		case m, ok := <-ep.Recv():
			if !ok {
				return out
			}
			out = append(out, m)
		default:
			return out
		}
	}
}

// inbox accumulates everything a raw fake-peer endpoint has received, so
// assertions can be re-polled without losing earlier messages.
type inbox struct {
	ep  transport.Endpoint
	got []*wire.Message
}

func (b *inbox) drain() []*wire.Message {
	b.got = append(b.got, drainInbox(b.ep)...)
	return b.got
}

func (b *inbox) busy() int {
	n := 0
	for _, m := range b.drain() {
		if m.Busy {
			n++
		}
	}
	return n
}

// ofType returns the frames of one message type received so far.
func (b *inbox) ofType(typ wire.Type) (out []*wire.Message) {
	for _, m := range b.drain() {
		if m.Type == typ {
			out = append(out, m)
		}
	}
	return out
}

func (b *inbox) find(id uint64) *wire.Message {
	for _, m := range b.drain() {
		if m.ID == id {
			return m
		}
	}
	return nil
}

func opFrame(from wire.Addr, id uint64, op wire.OpCode, ttl time.Duration) *wire.Message {
	return &wire.Message{Type: wire.TOp, ID: id, From: from, Op: op, TTL: ttl, Template: reqTmpl()}
}

// Satellite regression: a memnet flood of remote `in` registrations must
// not grow the wait table past either the per-peer or the global cap,
// and every refused registration is an explicit Busy reply, not silence.
func TestRemoteWaitFloodBounded(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		// Watermark 1.0 keeps pressure shedding out of the way: the hard
		// quota caps are what this test exercises.
		c.Governor = GovernorConfig{MaxPeerWaits: 8, MaxTotalWaits: 12, ShedWatermark: 1.0}
	})
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	y, err := r.net.Attach("y")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	r.seedCaps("y")
	zin, yin := &inbox{ep: z}, &inbox{ep: y}

	const flood = 50
	for id := uint64(1); id <= flood; id++ {
		if err := z.Send("a", opFrame("z", id, wire.OpIn, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "flood settles at the per-peer cap", func() bool {
		return waitsLen(a) == 8 && zin.busy() == flood-8
	})
	quiesceServe(t, a)
	if n := waitsLen(a); n != 8 {
		t.Fatalf("wait table = %d after flood from one peer, want per-peer cap 8", n)
	}
	if got := zin.busy(); got != flood-8 {
		t.Fatalf("busy replies = %d, want %d (every refusal explicit)", got, flood-8)
	}
	if rep := a.Governor(); rep.QuotaSheds != flood-8 {
		t.Fatalf("QuotaSheds = %d, want %d", rep.QuotaSheds, flood-8)
	}

	// A second peer can still register (fairness), but only up to the
	// global cap; its overflow is refused just as explicitly.
	for id := uint64(1); id <= 20; id++ {
		if err := y.Send("a", opFrame("y", id, wire.OpIn, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "second peer stops at the global cap", func() bool {
		return waitsLen(a) == 12 && yin.busy() == 16
	})
	quiesceServe(t, a)
	if n := waitsLen(a); n != 12 {
		t.Fatalf("wait table = %d, want global cap 12", n)
	}
	rep := a.Governor()
	if total := rep.Sheds(); total != (flood-8)+16 {
		t.Fatalf("total sheds = %d, want %d", total, (flood-8)+16)
	}
	if rep.Revokes != 0 {
		t.Fatalf("flood caused %d revocations; quotas must hold without the last resort", rep.Revokes)
	}
	if got := r.met.Get(trace.CtrGovQuotaSheds); got != int64(rep.QuotaSheds) {
		t.Fatalf("quota shed counter = %d, report says %d", got, rep.QuotaSheds)
	}
}

// Acceptance criterion: a server holding a remote wait whose requester
// budget has lapsed releases it without waiting for the op's TTL — the
// propagated budget bounds the serve lease.
func TestDeadlinePropagationReleasesWaitEarly(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	zin := &inbox{ep: z}

	m := opFrame("z", 1, wire.OpIn, time.Hour)
	m.Budget = 50 * time.Millisecond
	if err := z.Send("a", m); err != nil {
		t.Fatal(err)
	}
	eventually(t, "wait registered", func() bool { return waitsLen(a) == 1 })
	if got := r.met.Get(trace.CtrGovDeadlineCuts); got != 1 {
		t.Fatalf("deadline cuts = %d, want 1", got)
	}

	// At the budget (not the hour-long TTL) the serve lease expires and
	// the wait is released with a definitive not-found.
	r.clk.Advance(51 * time.Millisecond)
	eventually(t, "wait released at requester budget", func() bool { return waitsLen(a) == 0 })
	eventually(t, "definitive not-found sent", func() bool {
		m := zin.find(1)
		return m != nil && m.Type == wire.TResult && !m.Found
	})
}

// stampBudget only speaks up when the context is tighter than the TTL.
func TestStampBudget(t *testing.T) {
	m := &wire.Message{Type: wire.TOp, TTL: time.Hour}
	stampBudget(context.Background(), m)
	if m.Budget != 0 {
		t.Fatalf("unbounded ctx produced budget %v", m.Budget)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	stampBudget(ctx, m)
	if m.Budget <= 0 || m.Budget > 100*time.Millisecond {
		t.Fatalf("budget = %v, want (0, 100ms]", m.Budget)
	}
	m.TTL = time.Nanosecond // ctx looser than TTL: stay silent
	stampBudget(ctx, m)
	if m.Budget != 0 {
		t.Fatalf("budget = %v with loose ctx, want 0", m.Budget)
	}
}

// The shedding order under rising pressure: probes first, blocking waits
// next, outs last — each refusal explicit, and no revocation anywhere
// below the revoke watermark. Pressure is injected directly into the
// wait-table fraction so each rung can be observed in isolation.
func TestShedOrderUnderPressure(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		// Thresholds: probes 0.60, waits 0.7333, outs 0.8667.
		c.Governor = GovernorConfig{MaxTotalWaits: 100, MaxPeerWaits: 100, ShedWatermark: 0.6}
	})
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	box := &inbox{ep: z}
	var id uint64

	setWaits := func(n int) {
		a.gov.mu.Lock()
		a.gov.totalWaits = n
		a.gov.mu.Unlock()
	}
	reply := func(m *wire.Message) *wire.Message {
		t.Helper()
		id++
		m.ID, m.From = id, "z"
		if err := z.Send("a", m); err != nil {
			t.Fatal(err)
		}
		var got *wire.Message
		eventually(t, "reply received (sheds must never be silent)", func() bool {
			got = box.find(id)
			return got != nil
		})
		return got
	}
	probe := func() *wire.Message {
		return reply(&wire.Message{Type: wire.TOp, Op: wire.OpRdp, TTL: time.Second, Template: reqTmpl()})
	}
	outAck := func() *wire.Message {
		return reply(&wire.Message{Type: wire.TOut, TTL: time.Minute, Tuple: req(9)})
	}
	admitWait := func() bool {
		t.Helper()
		id++
		before := waitsLen(a)
		if err := z.Send("a", opFrame("z", id, wire.OpIn, time.Hour)); err != nil {
			t.Fatal(err)
		}
		admitted := false
		eventually(t, "wait admitted or refused", func() bool {
			if waitsLen(a) > before {
				admitted = true
				return true
			}
			m := box.find(id)
			return m != nil && m.Busy
		})
		return admitted
	}

	// Below the watermark: everything flows.
	setWaits(50)
	if m := probe(); m.Busy {
		t.Fatal("probe shed below the watermark")
	}
	if !admitWait() {
		t.Fatal("wait refused below the watermark")
	}
	if m := outAck(); !m.OK {
		t.Fatalf("out refused below the watermark: %q", m.Err)
	}

	// Past the probe rung: probes shed, waits and outs still flow.
	setWaits(65)
	if m := probe(); !m.Busy {
		t.Fatal("probe served past the probe rung")
	}
	if !admitWait() {
		t.Fatal("wait refused at probe-rung pressure")
	}
	if m := outAck(); !m.OK {
		t.Fatalf("out refused at probe-rung pressure: %q", m.Err)
	}

	// Past the wait rung: blocking waits shed too; outs still flow.
	setWaits(78)
	if m := probe(); !m.Busy {
		t.Fatal("probe served past the wait rung")
	}
	if admitWait() {
		t.Fatal("wait admitted past the wait rung")
	}
	if m := outAck(); !m.OK {
		t.Fatalf("out refused at wait-rung pressure: %q", m.Err)
	}

	// Past the out rung: stored work sheds last.
	setWaits(90)
	if m := outAck(); m.OK || !m.Busy {
		t.Fatalf("out not shed past its rung: ok=%v busy=%v", m.OK, m.Busy)
	}

	rep := a.Governor()
	if rep.ShedProbes != 2 || rep.ShedWaits != 1 || rep.ShedOuts != 1 {
		t.Fatalf("shed classes = probes %d waits %d outs %d, want 2/1/1",
			rep.ShedProbes, rep.ShedWaits, rep.ShedOuts)
	}
	if rep.GrantClamps == 0 {
		t.Fatal("no grant was clamped above the watermark")
	}
	if rep.Revokes != 0 {
		t.Fatalf("revoked %d leases below the revoke watermark", rep.Revokes)
	}
}

// The escalation ladder's last rung: revocation fires only past the
// revoke watermark, only when a shrink sweep has nothing left to
// reclaim, and only after a full cooldown with no productive shrink.
func TestRevokeOnlyAfterShrinkExhausted(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		c.Governor = GovernorConfig{
			MaxTotalWaits: 4, MaxPeerWaits: 4,
			ShedWatermark: 0.9,
		}
	})
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	box := &inbox{ep: z}

	// A lease with slack: granted a fat byte budget, used little — the
	// way a long-running eval holds its worst-case budget.
	fat, err := a.LeaseManager().Grant(lease.OpOut, lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 64 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	if err := fat.ConsumeBytes(16); err != nil {
		t.Fatal(err)
	}

	// Saturate the wait table: pressure hits 1.0.
	for k := 1; k <= 4; k++ {
		if err := z.Send("a", opFrame("z", uint64(k), wire.OpIn, time.Hour)); err != nil {
			t.Fatal(err)
		}
		want := k
		eventually(t, "wait registered", func() bool { return waitsLen(a) == want })
	}

	// First shed event past the revoke watermark: the fat lease's slack
	// is reclaimed by re-negotiation, and that working shrink defers the
	// last resort.
	if err := z.Send("a", opFrame("z", 100, wire.OpRdp, time.Second)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "probe refused busy", func() bool {
		m := box.find(100)
		return m != nil && m.Busy
	})
	quiesceServe(t, a)
	rep := a.Governor()
	if rep.Shrinks == 0 {
		t.Fatalf("no shrink at saturation: %+v", rep)
	}
	if rep.Revokes != 0 {
		t.Fatalf("revoked while shrinkable slack remained: %+v", rep)
	}
	if got := fat.Terms().MaxBytes; got != 16 {
		t.Fatalf("slack not reclaimed: MaxBytes = %d, want 16", got)
	}
	if fat.State() != lease.StateActive {
		t.Fatal("shrink terminated the lease; it must only narrow it")
	}

	// Pressure persists for a full cooldown with nothing left to shrink:
	// the next shed escalates to a single revocation.
	r.clk.Advance(time.Second)
	if err := z.Send("a", opFrame("z", 101, wire.OpRdp, time.Second)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "one revocation after shrink exhausted", func() bool {
		return a.Governor().Revokes == 1
	})
	if got := r.met.Get(trace.CtrGovRevokes); got != 1 {
		t.Fatalf("revoke counter = %d, want 1", got)
	}
}

// A panicking eval function degrades that one op: the panic is recovered
// and counted, its lease is released, and the instance keeps serving.
func TestPanicIsolation(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	box := &inbox{ep: z}
	a.RegisterEval("boom", func(ctx context.Context, args tuple.Tuple) (tuple.Tuple, error) {
		panic("poisoned computation")
	})

	if err := z.Send("a", &wire.Message{Type: wire.TEval, ID: 1, From: "z", Func: "boom", TTL: time.Minute, Tuple: req(1)}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "panic recovered and counted", func() bool {
		return r.met.Get(trace.CtrPanics) == 1
	})
	if got := a.LastPanic(); got == "" {
		t.Fatal("LastPanic empty after a recovered panic")
	}
	eventually(t, "eval lease released after panic", func() bool {
		return a.LeaseManager().Stats().Active == 0
	})

	// The node still serves.
	if err := a.Out(req(7), nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Send("a", opFrame("z", 2, wire.OpRdp, time.Second)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "instance serves after panic", func() bool {
		m := box.find(2)
		return m != nil && m.Found
	})
}

// A cancel that overtakes its op in the governor's queue must not leave
// a waiter behind.
func TestCancelOvertakesQueuedOp(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	for round := uint64(0); round < 20; round++ {
		if err := z.Send("a", opFrame("z", 1000+round, wire.OpIn, time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := z.Send("a", &wire.Message{Type: wire.TCancel, ID: 1000 + round, From: "z"}); err != nil {
			t.Fatal(err)
		}
	}
	quiesceServe(t, a)
	eventually(t, "no waiter survives its cancel", func() bool { return waitsLen(a) == 0 })
}

// Duplicated frames arriving while the original is still queued or
// executing are deduped by the inflight table: with a parallel worker
// pool, the served cache alone cannot prevent double execution.
func TestInflightDedupAcrossWorkers(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	if err := a.Out(req(2), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	before := a.LocalSpace().Count()
	dedups := r.met.Get(trace.CtrDedupDrops)

	// A burst of identical takes: exactly one may execute, whether the
	// copies catch the original in the queue (inflight dedup) or after
	// its reply (served-cache replay).
	for k := 0; k < 8; k++ {
		if err := z.Send("a", opFrame("z", 77, wire.OpInp, time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "burst deduped", func() bool {
		return r.met.Get(trace.CtrDedupDrops) == dedups+7
	})
	quiesceServe(t, a)
	if n := a.LocalSpace().Count(); n != before-1 {
		t.Fatalf("space count = %d after duplicated take burst, want %d (one held)", n, before-1)
	}
	a.mu.Lock()
	holds := len(a.holds)
	a.mu.Unlock()
	if holds != 1 {
		t.Fatalf("pending holds = %d, want 1", holds)
	}
}

// TestIdleNodeServesInline pins which path serves a peer's frame: the
// space decides. On a space that declares it never blocks, every admitted
// take, out and eval is served on the receive loop and nothing is queued;
// on a space without the declaration, every one goes to the worker pool.
// Queued is the count that tells the two paths apart.
func TestIdleNodeServesInline(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		space  string
		queued uint64 // per frame
	}{{"store", 0}, {"naive", 0}, {"persist", 1}} {
		t.Run(tc.space, func(t *testing.T) {
			r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) {
				if c.Endpoint.Addr() == "a" {
					c.Space = openSpace(t, c, tc.space)
				}
			})
			r.net.ConnectAll()
			// Capabilities known both ways: no probe lands behind an op.
			r.inst["a"].list.ObserveAnnounce("b", wire.CapsCurrent, false)
			r.inst["b"].list.ObserveAnnounce("a", wire.CapsCurrent, false)
			a, b := r.inst["a"], r.inst["b"]
			a.RegisterEval("id", func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) { return args, nil })
			for k := int64(0); k < 2*n; k++ {
				if err := a.Out(req(k), hourLease()); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < n; k++ {
				if res, ok, err := b.Inp(context.Background(), reqTmpl(), nil); err != nil || !ok || res.From != "a" {
					t.Fatalf("Inp %d = %+v %v %v", k, res, ok, err)
				}
				if res, err := b.In(context.Background(), reqTmpl(), nil); err != nil || res.From != "a" {
					t.Fatalf("In %d = %+v %v", k, res, err)
				}
			}
			if got, want := a.Governor().Queued, tc.queued*2*n; got != want {
				t.Fatalf("Queued = %d after %d remote takes, want %d", got, 2*n, want)
			}
			// Four evals: as many as a's lease manager has threads for.
			const evals = 4
			for k := int64(0); k < n; k++ {
				if err := b.OutAt("a", req(100+k), outLease()); err != nil {
					t.Fatal(err)
				}
			}
			for k := int64(0); k < evals; k++ {
				if err := b.EvalAt("a", "id", req(200+k), outLease()); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := a.Governor().Queued, tc.queued*(3*n+evals); got != want {
				t.Fatalf("Queued = %d after %d remote outs and %d evals, want %d", got, n, evals, want)
			}
		})
	}

	t.Run("busy", func(t *testing.T) {
		// A burst of takes lands on a store node back to back, so most
		// arrive with others behind them in the receive channel. The loop
		// serves them one after another: the replies leave in arrival
		// order, and none is queued.
		const burst = 7
		r := newRig(t, []wire.Addr{"a"}, nil)
		a := r.inst["a"]
		z, err := r.net.Attach("z")
		if err != nil {
			t.Fatal(err)
		}
		r.net.ConnectAll()
		r.seedCaps("z")
		zin := &inbox{ep: z}
		for k := int64(1); k <= burst; k++ {
			if err := a.Out(req(k), hourLease()); err != nil {
				t.Fatal(err)
			}
		}
		for id := uint64(1); id <= burst; id++ {
			if err := z.Send("a", opFrame("z", id, wire.OpInp, time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		eventually(t, "every take answered", func() bool { return len(zin.ofType(wire.TResult)) == burst })
		for k, m := range zin.ofType(wire.TResult) {
			if !m.Found || m.ID != uint64(k+1) {
				t.Fatalf("reply %d: ID %d found %v, want ID %d found", k, m.ID, m.Found, k+1)
			}
		}
		if got := a.Governor().Queued; got != 0 {
			t.Fatalf("Queued = %d after a burst of %d, want 0", got, burst)
		}
	})
}

// gatedSpace holds every Hold call at a gate, keeping the serve worker
// that made it in flight for as long as the test likes.
type gatedSpace struct {
	space.Space
	entered chan struct{}
	release chan struct{}
}

func (g gatedSpace) Hold(p tuple.Template) (space.Hold, bool) {
	g.entered <- struct{}{}
	<-g.release
	return g.Space.Hold(p)
}

// TestDuplicateOfInflightOpIsAnswered pins the lossless in-flight dedup:
// a second copy of a frame whose first copy is still executing is not
// re-executed, and not met with silence either — the requester may be
// counting on this responder (a not-found re-probe multicast racing the
// worker that already replied), and would wait out its whole lease. The
// duplicate is owed the recorded reply once the worker retires the op.
func TestDuplicateOfInflightOpIsAnswered(t *testing.T) {
	gate := gatedSpace{entered: make(chan struct{}, 1), release: make(chan struct{})}
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		gate.Space = store.New(store.WithClock(c.Clock), store.WithMetrics(c.Metrics))
		c.Space = gate
	})
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	zin := &inbox{ep: z}
	for k := int64(1); k <= 2; k++ {
		if err := a.Out(req(k), hourLease()); err != nil {
			t.Fatal(err)
		}
	}

	probe := opFrame("z", 7, wire.OpInp, time.Minute)
	if err := z.Send("a", probe); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the take never reached the space")
	}
	if err := z.Send("a", probe); err != nil {
		t.Fatal(err)
	}
	eventually(t, "duplicate seen while the op is in flight", func() bool {
		return r.met.Get(trace.CtrDedupDrops) == 1
	})
	close(gate.release)
	quiesceServe(t, a)

	eventually(t, "both copies answered", func() bool { return len(zin.ofType(wire.TResult)) >= 2 })
	time.Sleep(20 * time.Millisecond) // a third reply would be one too many
	got := zin.ofType(wire.TResult)
	if len(got) != 2 {
		t.Fatalf("%d results reached the requester, want the reply and its one replay", len(got))
	}
	if !got[0].Found || got[0].ID != 7 || !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("replay differs from the reply: %+v vs %+v", got[0], got[1])
	}
	// One take, answered twice: the second tuple was never touched.
	if n := a.LocalSpace().Count(); n != 2 { // the survivor plus the space-info tuple
		t.Fatalf("space holds %d tuples, want 2", n)
	}
	if got := r.met.Get(trace.CtrOpsExpired); got != 0 {
		t.Fatalf("%s = %d, want 0", trace.CtrOpsExpired, got)
	}
}

// newPoolRig is a one-node rig whose space may block, so its governor
// queues every admitted frame for the worker pool: a store behind
// gatedSpace, whose gate has room for every Hold the test lets in. open
// opens the gate for good; it runs, at the latest, before the rig closes.
func newPoolRig(t *testing.T) (r *rig, gate gatedSpace, open func()) {
	t.Helper()
	gate = gatedSpace{entered: make(chan struct{}, 2*maxPeerInflight), release: make(chan struct{})}
	r = newRig(t, []wire.Addr{"a"}, func(c *Config) {
		gate.Space = store.New(store.WithClock(c.Clock), store.WithMetrics(c.Metrics))
		c.Space = gate
	})
	open = sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(open)
	return r, gate, open
}

// holdWorkers sends n takes from peer and waits until n of them are held
// at the gate: with n = serveWorkers, every worker is busy.
func holdWorkers(t *testing.T, ep transport.Endpoint, gate gatedSpace, from wire.Addr, first uint64, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if err := ep.Send("a", opFrame(from, first+uint64(k), wire.OpInp, time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		select {
		case <-gate.entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d takes reached the space", k, n)
		}
	}
}

// TestGovernPeerQuotaOnPool pins the per-peer in-flight quota where it
// applies: on a node whose space may block, a peer's frames queued for
// the worker pool or run by a worker are capped at maxPeerInflight. With
// the workers held, one peer's next frame is shed busy and counted, while
// another peer's first frame is still queued behind them.
func TestGovernPeerQuotaOnPool(t *testing.T) {
	r, gate, open := newPoolRig(t)
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	y, err := r.net.Attach("y")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	r.seedCaps("y")
	zin, yin := &inbox{ep: z}, &inbox{ep: y}

	holdWorkers(t, z, gate, "z", 1, serveWorkers)
	for id := uint64(serveWorkers + 1); id <= maxPeerInflight; id++ {
		if err := z.Send("a", opFrame("z", id, wire.OpInp, time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the peer's frames fill its quota", func() bool { return a.Governor().Queued == maxPeerInflight })
	over := uint64(maxPeerInflight + 1)
	if err := z.Send("a", opFrame("z", over, wire.OpInp, time.Minute)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the frame over the quota is refused", func() bool { return zin.find(over) != nil })
	if m := zin.find(over); m.Type != wire.TResult || m.Found || !m.Busy {
		t.Fatalf("frame over the quota answered %+v, want a busy not-found", m)
	}
	if err := y.Send("a", opFrame("y", 1, wire.OpInp, time.Minute)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "another peer's frame is queued", func() bool { return a.Governor().Queued == maxPeerInflight+1 })
	if m := yin.find(1); m != nil {
		t.Fatalf("another peer's frame answered %+v while the workers are held", m)
	}
	rep := a.Governor()
	if rep.QuotaSheds != 1 || rep.Sheds() != 1 || r.met.Get(trace.CtrGovQuotaSheds) != 1 {
		t.Fatalf("quota sheds %d (counter %d), all sheds %d; want 1, 1, 1",
			rep.QuotaSheds, r.met.Get(trace.CtrGovQuotaSheds), rep.Sheds())
	}

	open()
	eventually(t, "every frame answered", func() bool {
		return len(zin.ofType(wire.TResult)) == maxPeerInflight+1 && yin.find(1) != nil
	})
	if m := yin.find(1); m.Busy {
		t.Fatalf("another peer's frame answered %+v, want served", m)
	}
	if n := zin.busy(); n != 1 {
		t.Fatalf("%d busy replies to the peer over its quota, want 1", n)
	}
	quiesceServe(t, a)
	eventually(t, "every charge released", a.gov.idle)
}

// TestGovernRefusesOversizeFrame: on a node that serves on its receive
// loop, a peer's account holds at most the frame being served, so the one
// quota refusal there is a frame whose own footprint exceeds the per-peer
// byte quota: refused busy and counted as a quota shed, as on a node with
// a worker pool.
func TestGovernRefusesOversizeFrame(t *testing.T) {
	d := newDupRig(t)
	resident := d.a.LocalSpace().Count()
	big := tuple.T(tuple.String(strings.Repeat("x", maxPeerBytes)))
	d.send(&wire.Message{Type: wire.TOut, ID: 1, TTL: time.Hour, Tuple: big})
	acks := d.zin.ofType(wire.TAck)
	if len(acks) != 1 || acks[0].OK || !acks[0].Busy {
		t.Fatalf("oversize out answered %+v, want one busy refusal", acks)
	}
	if rep := d.a.Governor(); rep.QuotaSheds != 1 || rep.Queued != 0 {
		t.Fatalf("quota sheds %d, queued %d; want 1 and 0", rep.QuotaSheds, rep.Queued)
	}
	if n := d.a.LocalSpace().Count(); n != resident {
		t.Fatalf("space holds %d tuples after the refusal, want %d", n, resident)
	}
	if !d.a.gov.idle() || countRequests(d.a, func(request) bool { return true }) != 0 {
		t.Fatal("a refused frame left an account or a request record behind")
	}
}

// TestCancelOvertakesOpInPoolQueue: on a node whose space may block, a
// TCancel that lands while its blocking op waits in the serve queue is
// filed on the receive loop, and the worker that dequeues the op later
// finds it cancelled: the op reaches neither the space nor the lease
// manager, parks no wait and is sent no reply.
func TestCancelOvertakesOpInPoolQueue(t *testing.T) {
	r, gate, _ := newPoolRig(t)
	a := r.inst["a"]
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	zin := &inbox{ep: z}

	holdWorkers(t, z, gate, "z", 1, serveWorkers)
	granted := a.LeaseManager().Stats().Granted
	const op = 100
	if err := z.Send("a", opFrame("z", op, wire.OpIn, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := z.Send("a", &wire.Message{Type: wire.TCancel, ID: op, From: "z"}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the cancel is filed", func() bool {
		return countServed(a, func(f finished) bool { return f.key.id == op && f.kind == ansCancelled }) == 1
	})
	if n := len(a.gov.queue); n != 1 {
		t.Fatalf("%d frames queued when the cancel was filed, want the op", n)
	}

	// Let the held takes go, one each: a free worker dequeues the op. Then
	// hold every worker again; had the op reached the space, its worker
	// would be one of them, and a take would be left in the queue.
	for k := 0; k < serveWorkers; k++ {
		gate.release <- struct{}{}
	}
	holdWorkers(t, z, gate, "z", 200, serveWorkers)
	if n := len(a.gov.queue); n != 0 {
		t.Fatalf("%d frames left queued: the cancelled op reached the space", n)
	}
	if n := waitsLen(a); n != 0 {
		t.Fatalf("%d waits parked for a cancelled op", n)
	}
	if n := a.LeaseManager().Stats().Granted - granted; n != 0 {
		t.Fatalf("%d leases granted for a cancelled op", n)
	}
	if m := zin.find(op); m != nil {
		t.Fatalf("cancelled op answered %+v", m)
	}
}
