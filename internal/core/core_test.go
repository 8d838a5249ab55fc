package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

// rig is a simulated deployment of n instances, fully or partially visible.
type rig struct {
	t    *testing.T
	clk  *clock.Virtual
	net  *memnet.Network
	met  *trace.Metrics
	inst map[wire.Addr]*Instance
}

func newRig(t *testing.T, addrs []wire.Addr, mutate func(*Config)) *rig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	met := &trace.Metrics{}
	net := memnet.New(memnet.WithClock(clk), memnet.WithMetrics(met))
	r := &rig{t: t, clk: clk, net: net, met: met, inst: make(map[wire.Addr]*Instance)}
	for _, a := range addrs {
		ep, err := net.Attach(a)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Endpoint: ep, Clock: clk, Metrics: met}
		if mutate != nil {
			mutate(&cfg)
		}
		inst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.inst[a] = inst
	}
	t.Cleanup(r.close)
	return r
}

// seedCaps marks peer as a fully capable build at every instance,
// standing in for the announce exchange the rig's raw test endpoints
// never perform — without it the instances gate every versioned field
// (busy markers, replica identities) toward the peer,
// which is exactly the conservative default the capability tests cover
// separately.
func (r *rig) seedCaps(peer wire.Addr) {
	for _, inst := range r.inst {
		inst.list.ObserveAnnounce(peer, wire.CapsCurrent, false)
	}
}

func (r *rig) close() {
	for _, i := range r.inst {
		i.Close()
	}
	r.net.Close()
}

// setEvery gives a sweep a new period and runs it next one period from
// now: how a test hurries a sweep, or keeps one out of its way, since New
// derives every period from ContactTimeout.
func (s *sweep) setEvery(every time.Duration) {
	s.mu.Lock()
	s.every = every
	s.mu.Unlock()
	s.next()
}

// idle reports whether the governor has nothing admitted, queued or
// parked for any peer.
func (g *governor) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.peers) == 0
}

func req(id int64) tuple.Tuple { return tuple.T(tuple.String("req"), tuple.Int(id)) }
func reqTmpl() tuple.Template  { return tuple.Tmpl(tuple.String("req"), tuple.FormalInt()) }

// eventually polls cond for up to 2s of real time.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

func TestLocalOutAndInp(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := a.Inp(context.Background(), reqTmpl(), nil)
	if err != nil || !ok {
		t.Fatalf("Inp = %v %v %v", res, ok, err)
	}
	if !res.Tuple.Equal(req(1)) || res.From != "a" {
		t.Fatalf("res = %+v", res)
	}
	if _, ok, _ := a.Inp(context.Background(), reqTmpl(), nil); ok {
		t.Fatal("second Inp matched")
	}
}

func TestIsolatedInstanceWorks(t *testing.T) {
	// Paper §2.2: each node contains a local space so applications can
	// operate even in isolation.
	r := newRig(t, []wire.Addr{"solo"}, nil)
	s := r.inst["solo"]
	if err := s.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.Rd(context.Background(), reqTmpl(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuple.Equal(req(1)) {
		t.Fatalf("res = %+v", res)
	}
}

func TestRemoteInpTakesFromVisibleInstance(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(7), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Inp(context.Background(), reqTmpl(), nil)
	if err != nil || !ok {
		t.Fatalf("remote Inp = %v %v %v", res, ok, err)
	}
	if res.From != "a" || !res.Tuple.Equal(req(7)) {
		t.Fatalf("res = %+v", res)
	}
	// The take removed the tuple at a: nobody can get it again.
	if _, ok, _ := a.Inp(context.Background(), reqTmpl(), nil); ok {
		t.Fatal("tuple still present at a after remote take")
	}
}

// lingerAccept is an endpoint whose TAccept sends return late: by then
// the owner's ack is already back, as it can be on any transport that
// delivers synchronously.
type lingerAccept struct{ transport.Endpoint }

func (e lingerAccept) Send(to wire.Addr, m *wire.Message) error {
	err := e.Endpoint.Send(to, m)
	if m.Type == wire.TAccept {
		// Yielding, not sleeping: a timer sleep rounds up to a millisecond.
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
			runtime.Gosched()
		}
	}
	return err
}

// TestTakesNeverRetransmitAccept: the accept's retransmission record
// must be registered before the TAccept is sent. Registered after, an
// ack that is back before send returns finds nothing to settle, and the
// accept is retransmitted one ContactTimeout later — 2–5 per thousand
// takes over plain memnet, every one of them over lingerAccept.
func TestTakesNeverRetransmitAccept(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) {
		c.Endpoint = lingerAccept{c.Endpoint}
	})
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	for k := int64(0); k < 1000; k++ {
		if err := a.Out(req(k), nil); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Inp(context.Background(), reqTmpl(), nil); err != nil || !ok {
			t.Fatalf("take %d: ok=%v err=%v", k, ok, err)
		}
	}
	eventually(t, "every accept settled by its ack", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.pendAccepts) == 0
	})
	// The clock is virtual: a retransmission fires only on this advance.
	r.clk.Advance(2 * time.Second)
	if n := r.met.Get(trace.CtrRetries); n != 0 {
		t.Fatalf("%d retransmissions over a lossless network, want 0", n)
	}
}

func TestRemoteRdpCopies(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(7), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Rdp(context.Background(), reqTmpl(), nil)
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("remote Rdp = %+v %v %v", res, ok, err)
	}
	// rd copies: the tuple stays at a.
	if _, ok, _ := a.Rdp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("tuple gone from a after remote rd")
	}
}

func TestFigure1LogicalSpaces(t *testing.T) {
	// Paper Figure 1: (a) isolated, (b) A-B visible, (c) C visible to B
	// only; every instance sees a different logical space.
	r := newRig(t, []wire.Addr{"A", "B", "C"}, nil)
	a, b, c := r.inst["A"], r.inst["B"], r.inst["C"]
	mark := func(name string) tuple.Tuple { return tuple.T(tuple.String("at"), tuple.String(name)) }
	at := func(name string) tuple.Template {
		return tuple.Tmpl(tuple.String("at"), tuple.String(name))
	}
	for name, inst := range map[string]*Instance{"A": a, "B": b, "C": c} {
		if err := inst.Out(mark(name), nil); err != nil {
			t.Fatal(err)
		}
	}

	// (a) isolated: A sees only its own tuple.
	if _, ok, _ := a.Rdp(context.Background(), at("A"), nil); !ok {
		t.Fatal("(a) A cannot see its own tuple")
	}
	if _, ok, _ := a.Rdp(context.Background(), at("B"), nil); ok {
		t.Fatal("(a) isolated A sees B's tuple")
	}

	// (b) A and B become visible: each sees the union of both spaces.
	r.net.SetVisible("A", "B", true)
	if _, ok, _ := a.Rdp(context.Background(), at("B"), nil); !ok {
		t.Fatal("(b) A cannot see B's tuple")
	}
	if _, ok, _ := b.Rdp(context.Background(), at("A"), nil); !ok {
		t.Fatal("(b) B cannot see A's tuple")
	}

	// (c) C becomes visible to B but not A: B sees all three, A and C
	// see only their own plus B's. No global consistency.
	r.net.SetVisible("B", "C", true)
	if _, ok, _ := b.Rdp(context.Background(), at("C"), nil); !ok {
		t.Fatal("(c) B cannot see C's tuple")
	}
	if _, ok, _ := a.Rdp(context.Background(), at("C"), nil); ok {
		t.Fatal("(c) A sees C's tuple despite no visibility")
	}
	if _, ok, _ := c.Rdp(context.Background(), at("A"), nil); ok {
		t.Fatal("(c) C sees A's tuple despite no visibility")
	}
	if _, ok, _ := c.Rdp(context.Background(), at("B"), nil); !ok {
		t.Fatal("(c) C cannot see B's tuple")
	}
}

func TestFirstResponderWinsOthersReinstated(t *testing.T) {
	// Two instances both hold a match; a take must consume exactly one
	// and the loser's tuple must be reinstated (paper §3.1.3).
	r := newRig(t, []wire.Addr{"a", "b", "c"}, nil)
	r.net.ConnectAll()
	a, b, c := r.inst["a"], r.inst["b"], r.inst["c"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Out(req(2), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := c.Inp(context.Background(), reqTmpl(), nil)
	if err != nil || !ok {
		t.Fatalf("Inp = %v %v", ok, err)
	}
	// Exactly one tuple was consumed; the other is still readable.
	eventually(t, "loser reinstated", func() bool {
		aHas := a.LocalSpace().Count()
		bHas := b.LocalSpace().Count()
		// each space has its space-info tuple, so count > 1 means the
		// req tuple is present.
		return aHas+bHas == 3
	})
	winner, _ := res.Tuple.IntAt(1)
	_ = winner
	// The loser's reinstatement happens when its (possibly still
	// in-flight) result is released, so retry the second take briefly.
	eventually(t, "second take succeeds", func() bool {
		_, ok, _ := c.Inp(context.Background(), reqTmpl(), nil)
		return ok
	})
}

func TestBlockingInServedByLaterRemoteOut(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := b.In(context.Background(), reqTmpl(), lease.Flexible(lease.Terms{Duration: time.Minute, MaxRemotes: 4}))
		done <- outcome{res, err}
	}()
	// Wait until b's blocking op is registered at a.
	eventually(t, "remote waiter registered", func() bool {
		return waitsLen(a) > 0
	})
	if err := a.Out(req(9), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.From != "a" || !o.res.Tuple.Equal(req(9)) {
			t.Fatalf("res = %+v", o.res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking In never completed")
	}
	if a.LocalSpace().Count() != 1 { // only the space-info tuple
		t.Fatalf("a count = %d, tuple not consumed", a.LocalSpace().Count())
	}
}

func TestBlockingInExpiresWithNoMatch(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	b := r.inst["b"]
	done := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(), lease.Flexible(lease.Terms{Duration: 3 * time.Second, MaxRemotes: 4}))
		done <- err
	}()
	// Let the op get underway, then expire its lease.
	eventually(t, "op registered", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.ops) > 0
	})
	r.clk.Advance(3 * time.Second)
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoMatch) {
			t.Fatalf("err = %v, want ErrNoMatch", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("In did not return at lease expiry")
	}
}

func TestBlockingRdLocalOutWins(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	done := make(chan error, 1)
	go func() {
		_, err := a.Rd(context.Background(), reqTmpl(), nil)
		done <- err
	}()
	eventually(t, "local waiter registered", func() bool {
		return a.LocalSpace().Count() >= 0 && func() bool {
			select {
			case err := <-done:
				done <- err
				return true
			default:
				return false
			}
		}() == false
	})
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Rd never completed")
	}
}

func TestContextCancelAbortsOp(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.In(ctx, reqTmpl(), nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("In did not return on ctx cancel")
	}
}

func TestLeaseRefusalFailsOperation(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		c.Leases = lease.Capacity{MaxActive: 1, MaxDuration: time.Minute, MaxRemotes: 4, MaxBytes: 1 << 20, MaxTotalBytes: 1 << 20}
	})
	a := r.inst["a"]
	// Exhaust the single lease slot.
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Out(req(2), nil); !errors.Is(err, lease.ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestOutLeaseExpiryReclaimsTuple(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	if err := a.Out(req(1), lease.Flexible(lease.Terms{Duration: 5 * time.Second, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	if a.LocalSpace().Count() != 2 {
		t.Fatalf("count = %d", a.LocalSpace().Count())
	}
	r.clk.Advance(5 * time.Second)
	eventually(t, "tuple reclaimed", func() bool { return a.LocalSpace().Count() == 1 })
	if _, ok, _ := a.Rdp(context.Background(), reqTmpl(), nil); ok {
		t.Fatal("expired tuple still matches")
	}
}

func TestLeaseRevocationDropsTuple(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	if n := a.LeaseManager().Revoke(1); n != 1 {
		t.Fatalf("revoked %d", n)
	}
	if _, ok, _ := a.Rdp(context.Background(), reqTmpl(), nil); ok {
		t.Fatal("tuple survived revocation")
	}
}

func TestSpaceInfoTupleReadable(t *testing.T) {
	// Paper §2.4: each space contains a special tuple with a handle and
	// space information, readable through ordinary operations.
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) { c.Persistent = true })
	r.net.ConnectAll()
	b := r.inst["b"]
	// The logical space prefers local matches, so pin the handle field to
	// read a specific space's info tuple.
	for _, addr := range []string{"a", "b"} {
		p := tuple.Tmpl(tuple.String(SpaceInfoName), tuple.String(addr), tuple.FormalBool())
		res, ok, err := b.Rdp(context.Background(), p, nil)
		if err != nil || !ok {
			t.Fatalf("space-info rdp for %s: %v %v", addr, ok, err)
		}
		got, _ := res.Tuple.StringAt(1)
		persistent, _ := res.Tuple.BoolAt(2)
		if got != addr || !persistent {
			t.Fatalf("info tuple for %s = %v", addr, res.Tuple)
		}
	}
}

func TestSpacesDiscovery(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b", "c"}, nil)
	r.net.ConnectAll()
	infos, err := r.inst["a"].Spaces(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("Spaces = %v", infos)
	}
	if infos[0].Addr != "a" {
		t.Fatal("local space not first")
	}
	// Discovery populates the responder list.
	if len(r.inst["a"].ResponderList()) != 2 {
		t.Fatalf("responder list = %v", r.inst["a"].ResponderList())
	}
}

func TestOutAtStoresRemotely(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.OutAt("b", req(5), nil); err != nil {
		t.Fatal(err)
	}
	// The tuple lives at b even though a produced it.
	if _, ok := b.LocalSpace().Rdp(reqTmpl()); !ok {
		t.Fatal("tuple not at b")
	}
	if _, ok := a.LocalSpace().Rdp(reqTmpl()); ok {
		t.Fatal("tuple also at a")
	}
	// Self-targeted OutAt is a local out.
	if err := a.OutAt("a", req(6), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LocalSpace().Rdp(reqTmpl()); !ok {
		t.Fatal("self OutAt missing")
	}
}

func TestOutAtRefusedByRemoteCapacity(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) {
		if c.Endpoint.Addr() == "b" {
			// MaxActive -1 refuses every grant. (A literal zero Capacity
			// would be replaced by the config defaults.)
			c.Leases = lease.Capacity{MaxActive: -1}
		}
	})
	r.net.ConnectAll()
	err := r.inst["a"].OutAt("b", req(1), nil)
	if !errors.Is(err, ErrRemoteRefused) {
		t.Fatalf("err = %v, want ErrRemoteRefused", err)
	}
}

func TestOutAtUnreachable(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	// no visibility
	err := r.inst["a"].OutAt("b", req(1), nil)
	if err == nil {
		t.Fatal("OutAt succeeded without visibility")
	}
}

func TestDirectRdAtAndInpAt(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b", "c"}, nil)
	r.net.ConnectAll()
	a, c := r.inst["a"], r.inst["c"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	// Direct ops target one space only: c probing b finds nothing.
	if _, ok, err := c.RdpAt(context.Background(), "b", reqTmpl(), nil); err != nil || ok {
		t.Fatalf("RdpAt(b) = %v %v", ok, err)
	}
	res, ok, err := c.RdpAt(context.Background(), "a", reqTmpl(), nil)
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("RdpAt(a) = %+v %v %v", res, ok, err)
	}
	res, ok, err = c.InpAt(context.Background(), "a", reqTmpl(), nil)
	if err != nil || !ok {
		t.Fatalf("InpAt(a) = %v %v", ok, err)
	}
	if _, ok := a.LocalSpace().Rdp(reqTmpl()); ok {
		t.Fatal("tuple not consumed by InpAt")
	}
	// Self-targeted direct ops.
	if err := a.Out(req(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := a.RdpAt(context.Background(), "a", reqTmpl(), nil); err != nil || !ok {
		t.Fatalf("self RdpAt = %v %v", ok, err)
	}
	if _, ok, err := a.InpAt(context.Background(), "a", reqTmpl(), nil); err != nil || !ok {
		t.Fatalf("self InpAt = %v %v", ok, err)
	}
}

func TestBlockingInAt(t *testing.T) {
	var cancels cancelLog
	r := newRig(t, []wire.Addr{"a", "b"}, cancels.tap)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	done := make(chan error, 1)
	go func() {
		_, err := b.InAt(context.Background(), "a", reqTmpl(), lease.Flexible(lease.Terms{Duration: time.Minute, MaxRemotes: 2}))
		done <- err
	}()
	eventually(t, "waiter at a", func() bool {
		return waitsLen(a) > 0
	})
	if err := a.Out(req(3), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("InAt never completed")
	}
	// a's wait ended with its own found reply: nothing left to cancel.
	if got := cancels.sent("b"); len(got) != 0 {
		t.Fatalf("settled InAt still sent cancels to %v", got)
	}

	// An InAt that gives up without an answer leaves a wait behind at a
	// and must still withdraw it.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, err := b.InAt(ctx, "a", reqTmpl(), lease.Flexible(lease.Terms{Duration: time.Minute, MaxRemotes: 2}))
		done <- err
	}()
	eventually(t, "second waiter at a", func() bool { return waitCount(a) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned InAt = %v", err)
	}
	if got := cancels.sent("b"); !sameAddrs(got, "a") {
		t.Fatalf("abandoned InAt sent cancels to %v, want [a]", got)
	}
	eventually(t, "abandoned wait withdrawn", func() bool { return waitCount(a) == 0 })
}

func TestOutBackRoutesToOrigin(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Inp(context.Background(), reqTmpl(), nil)
	if err != nil || !ok {
		t.Fatal("take failed")
	}
	// Send a response back to where the request came from.
	resp := tuple.T(tuple.String("resp"), tuple.Int(1))
	if err := b.OutBack(Result{Tuple: resp, From: res.From}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LocalSpace().Rdp(tuple.Tmpl(tuple.String("resp"), tuple.FormalInt())); !ok {
		t.Fatal("response not at origin")
	}
}

func TestOutBackLocalFallback(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, _ := b.Inp(context.Background(), reqTmpl(), nil)
	if !ok {
		t.Fatal("take failed")
	}
	r.net.Isolate("a") // origin departs
	if err := b.OutBack(res, nil); err != nil {
		t.Fatalf("RouteLocal fallback errored: %v", err)
	}
	if _, ok := b.LocalSpace().Rdp(reqTmpl()); !ok {
		t.Fatal("tuple not placed locally")
	}
}

func TestOutBackAbandonPolicy(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) { c.RoutePolicy = RouteAbandon })
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, _ := b.Inp(context.Background(), reqTmpl(), nil)
	if !ok {
		t.Fatal("take failed")
	}
	r.net.Isolate("a")
	if err := b.OutBack(res, nil); !errors.Is(err, ErrAbandoned) {
		t.Fatalf("err = %v, want ErrAbandoned", err)
	}
}

func TestEvalLocalProducesResultTuple(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	a.RegisterEval("double", func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) {
		v, err := args.IntAt(0)
		if err != nil {
			return tuple.Tuple{}, err
		}
		return tuple.T(tuple.String("result"), tuple.Int(v*2)), nil
	})
	if err := a.Eval("double", tuple.T(tuple.Int(21)), nil); err != nil {
		t.Fatal(err)
	}
	eventually(t, "eval result", func() bool {
		_, ok := a.LocalSpace().Rdp(tuple.Tmpl(tuple.String("result"), tuple.Int(42)))
		return ok
	})
}

func TestEvalUnknownFunction(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	if err := r.inst["a"].Eval("nope", tuple.T(), nil); !errors.Is(err, ErrUnknownEval) {
		t.Fatalf("err = %v", err)
	}
}

func TestEvalHaltedAtLeaseExpiry(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	started := make(chan struct{})
	a.RegisterEval("slow", func(ctx context.Context, _ tuple.Tuple) (tuple.Tuple, error) {
		close(started)
		<-ctx.Done() // simulate long computation halted by lease expiry
		return tuple.T(tuple.String("late")), ctx.Err()
	})
	if err := a.Eval("slow", tuple.T(), lease.Flexible(lease.Terms{Duration: time.Second, MaxBytes: 100})); err != nil {
		t.Fatal(err)
	}
	<-started
	r.clk.Advance(time.Second)
	eventually(t, "no result tuple", func() bool {
		_, ok := a.LocalSpace().Rdp(tuple.Tmpl(tuple.String("late")))
		return !ok
	})
}

func TestEvalAtRemote(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	b.RegisterEval("mark", func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) {
		return tuple.T(tuple.String("marked")), nil
	})
	if err := a.EvalAt("b", "mark", tuple.T(), nil); err != nil {
		t.Fatal(err)
	}
	eventually(t, "remote eval result at b", func() bool {
		_, ok := b.LocalSpace().Rdp(tuple.Tmpl(tuple.String("marked")))
		return ok
	})
	// Unknown function at remote.
	if err := a.EvalAt("b", "nope", tuple.T(), nil); !errors.Is(err, ErrRemoteRefused) {
		t.Fatalf("err = %v", err)
	}
}

// TestUnknownEvalAsksForNoLease: an eval naming no registered function is
// refused before any lease is asked for, locally and for a peer alike, so
// the refusal says the function is unknown whatever the lease manager
// would have answered.
func TestUnknownEvalAsksForNoLease(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	granted := a.LeaseManager().Stats().Granted
	if err := a.Eval("nope", tuple.T(), nil); !errors.Is(err, ErrUnknownEval) {
		t.Fatalf("local err = %v, want ErrUnknownEval", err)
	}
	want := "a: " + ErrUnknownEval.Error() + ": " + ErrRemoteRefused.Error()
	if err := b.EvalAt("a", "nope", tuple.T(), nil); err == nil || err.Error() != want {
		t.Fatalf("remote err = %v, want %q", err, want)
	}
	if n := a.LeaseManager().Stats().Granted - granted; n != 0 {
		t.Fatalf("a granted %d leases for evals of an unknown function", n)
	}
}

func TestResponderListLearnsAndEvicts(t *testing.T) {
	r := newRig(t, []wire.Addr{"a", "b", "c"}, nil)
	r.net.ConnectAll()
	a := r.inst["a"]
	r.inst["b"].Out(req(1), nil)
	// A propagated op discovers responders.
	if _, ok, err := a.Rdp(context.Background(), reqTmpl(), nil); err != nil || !ok {
		t.Fatalf("rdp = %v %v", ok, err)
	}
	eventually(t, "list populated", func() bool { return len(a.ResponderList()) >= 1 })
	// Departed nodes are evicted on the next send attempt. Re-attempt
	// inside the poll: an announce b sent just before its isolation (a
	// capability probe reply) may still be queued at a and re-add the
	// entry after the first eviction — the next contact evicts it again.
	r.net.Isolate("b")
	eventually(t, "b evicted", func() bool {
		a.Rdp(context.Background(), reqTmpl(), nil)
		for _, x := range a.ResponderList() {
			if x == "b" {
				return false
			}
		}
		return true
	})
}

func TestClosedInstanceRefusesOps(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	a.Close()
	a.Close() // idempotent
	if err := a.Out(req(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Out after close: %v", err)
	}
	if _, _, err := a.Rdp(context.Background(), reqTmpl(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rdp after close: %v", err)
	}
	if _, err := a.Spaces(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Spaces after close: %v", err)
	}
	if err := a.Eval("x", tuple.T(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Eval after close: %v", err)
	}
	if _, _, err := a.RdpAt(context.Background(), "b", reqTmpl(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("RdpAt after close: %v", err)
	}
	// The registration every outbound op shares refuses on its own: an op
	// that passed its entry check just before Close must not register.
	if _, err := a.openOp(); !errors.Is(err, ErrClosed) {
		t.Fatalf("openOp after close: %v", err)
	}
}

func TestCloseUnblocksBlockedOps(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	done := make(chan error, 1)
	go func() {
		_, err := a.In(context.Background(), reqTmpl(), lease.Flexible(lease.Terms{Duration: time.Hour}))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked In survived Close")
	}
}

func TestContinuousDiscoveryFindsLateArrivals(t *testing.T) {
	// The model's semantics (§2.2): instances becoming visible during a
	// blocking operation participate in it.
	r := newRig(t, []wire.Addr{"a", "b"}, func(c *Config) {
		c.ContinuousDiscovery = true
		c.RediscoverInterval = 100 * time.Millisecond
	})
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(), lease.Flexible(lease.Terms{Duration: time.Hour, MaxRemotes: 100}))
		done <- err
	}()
	eventually(t, "op started", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.ops) > 0
	})
	// Nothing visible yet; now a comes into range mid-operation.
	r.net.ConnectAll()
	r.clk.Advance(150 * time.Millisecond) // fire the rediscovery timer
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("late arrival never found")
	}
}

func TestSnapshotModeMissesLateArrivals(t *testing.T) {
	// The prototype's limitation (paper §3.1): only instances visible at
	// the start participate. Without continuous discovery the blocking
	// op does not see the late arrival until lease expiry.
	r := newRig(t, []wire.Addr{"a", "b"}, nil) // ContinuousDiscovery off
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.In(context.Background(), reqTmpl(), lease.Flexible(lease.Terms{Duration: 5 * time.Second, MaxRemotes: 100}))
		done <- err
	}()
	eventually(t, "op started", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.ops) > 0
	})
	r.net.ConnectAll()
	r.clk.Advance(time.Second)
	select {
	case err := <-done:
		t.Fatalf("snapshot-mode op completed after late arrival: %v", err)
	case <-time.After(100 * time.Millisecond):
		// Still blocked, as the prototype would be.
	}
	r.clk.Advance(5 * time.Second)
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoMatch) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("op never expired")
	}
}

func TestRemoteBudgetLimitsPropagation(t *testing.T) {
	// A lease with zero remote budget keeps the operation local.
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	_, ok, err := b.Rdp(context.Background(), reqTmpl(), lease.Exactly(lease.Terms{Duration: time.Second, MaxRemotes: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("op propagated despite zero remote budget")
	}
}

func TestManyInstancesEachSeesLogicalUnion(t *testing.T) {
	addrs := []wire.Addr{"n0", "n1", "n2", "n3", "n4", "n5"}
	r := newRig(t, addrs, nil)
	r.net.ConnectAll()
	for k, a := range addrs {
		if err := r.inst[a].Out(tuple.T(tuple.String("item"), tuple.Int(int64(k))), nil); err != nil {
			t.Fatal(err)
		}
	}
	// n0 can take every item, wherever it lives. Items tentatively held
	// by losing responders of a previous take are briefly invisible, so
	// each take retries until it lands.
	got := map[int64]bool{}
	for k := 0; k < len(addrs); k++ {
		var res Result
		eventually(t, "take succeeds", func() bool {
			var ok bool
			var err error
			res, ok, err = r.inst["n0"].Inp(context.Background(),
				tuple.Tmpl(tuple.String("item"), tuple.FormalInt()),
				lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 32}))
			if err != nil {
				t.Fatal(err)
			}
			return ok
		})
		v, _ := res.Tuple.IntAt(1)
		if got[v] {
			t.Fatalf("item %d taken twice", v)
		}
		got[v] = true
	}
	if len(got) != len(addrs) {
		t.Fatalf("collected %d items", len(got))
	}
}
