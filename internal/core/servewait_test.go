package core

import (
	"context"
	"errors"
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

// These tests cover the serve side of a blocking op (DESIGN.md §6): N
// peers parked in `in` on one template are registrations in the space
// with no goroutine behind them, one Out calls exactly one of them and
// sends its reply, and every way a wait can end — delivery, cancel,
// goodbye, sweep, shutdown, lease end — ends it once, in whatever order
// they arrive.

// TestRemoteTakersWokenOnePerOut is the master/worker shape of the
// paper's §3.2 applications: eight remote takers parked on one template,
// K outs, K distinct takers served — with no lost race behind it (nothing
// reinstated), no duplicate served (nothing dropped by dedup), and the
// other takers still parked.
func TestRemoteTakersWokenOnePerOut(t *testing.T) {
	const takers, outs = 8, 5
	r := newRig(t, []wire.Addr{"a", "b"}, nil)
	r.net.ConnectAll()
	a, b := r.inst["a"], r.inst["b"]
	// Introduce the two before the first op: a taker that has to find a
	// by multicast is re-armed toward it when it answers, and that second
	// contact is a duplicate by design — not the kind this test counts.
	r.seedCaps("a")
	r.seedCaps("b")

	type outcome struct {
		taker int
		res   Result
		err   error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan outcome, takers)
	for k := 0; k < takers; k++ {
		go func(k int) {
			res, err := b.In(ctx, reqTmpl(), longLease())
			done <- outcome{k, res, err}
		}(k)
	}
	eventually(t, "eight waits parked at a", func() bool { return waitCount(a) == takers })

	seenTaker := make(map[int]bool)
	seenTuple := make(map[int64]bool)
	for k := int64(0); k < outs; k++ {
		if err := a.Out(req(k), hourLease()); err != nil {
			t.Fatal(err)
		}
		// One out, one taker: wait for it before the next out, so a
		// second wake-up for the same tuple would have nothing to take
		// and would show as a reinstatement or a hang.
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("taker %d: %v", o.taker, o.err)
			}
			id, _ := o.res.Tuple.IntAt(1)
			if o.res.From != "a" || id != k {
				t.Fatalf("taker %d got %+v, want req(%d) from a", o.taker, o.res, k)
			}
			if seenTaker[o.taker] || seenTuple[id] {
				t.Fatalf("taker %d / tuple %d served twice", o.taker, id)
			}
			seenTaker[o.taker], seenTuple[id] = true, true
		case <-time.After(2 * time.Second):
			t.Fatalf("out %d woke nobody", k)
		}
	}
	select {
	case o := <-done:
		t.Fatalf("taker %d returned with no tuple out: %+v %v", o.taker, o.res, o.err)
	default:
	}
	eventually(t, "every hold accepted", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.holds) == 0
	})
	if n := waitCount(a); n != takers-outs {
		t.Fatalf("%d waits parked at a after %d outs, want %d", n, outs, takers-outs)
	}
	if n := a.LocalSpace().Count(); n != 1 { // the space-info tuple
		t.Fatalf("a holds %d tuples, want only its info tuple", n)
	}
	if n := r.met.Get(trace.CtrTuplesReinstated); n != 0 {
		t.Fatalf("%d tuples reinstated: a taker was woken for a tuple it could not have", n)
	}
	if n := r.met.Get(trace.CtrDedupDrops); n != 0 {
		t.Fatalf("%d dedup drops on a lossless network", n)
	}

	cancel()
	for k := outs; k < takers; k++ {
		if o := <-done; !errors.Is(o.err, context.Canceled) {
			t.Fatalf("parked taker %d ended with %+v %v", o.taker, o.res, o.err)
		}
	}
	eventually(t, "parked waits withdrawn by the cancels", func() bool { return waitCount(a) == 0 })
}

// stoppableSpace is a space the test can stop at the instants a served wait's
// edges race over: on the way into Park, on the way out of it (the match
// may have been delivered, the handle is not stored yet), on the way into
// the sink (the space has committed the match, the sink has not looked at
// the wait yet) and on the way out of Out (the sink has run, the caller
// has not recorded its lease yet). A nil gate is open.
type stoppableSpace struct {
	space.Space
	beforePark, afterPark, beforeSink, beforeOut, afterOut func()
}

func pass(gate func()) {
	if gate != nil {
		gate()
	}
}

func (s *stoppableSpace) Park(p tuple.Template, kind space.Kind, sink space.Sink) space.Parked {
	pass(s.beforePark)
	h := s.Space.Park(p, kind, stoppableSink{s, sink})
	pass(s.afterPark)
	return h
}

func (s *stoppableSpace) Out(t tuple.Tuple, expiry time.Time) (uint64, error) {
	pass(s.beforeOut)
	id, err := s.Space.Out(t, expiry)
	pass(s.afterOut)
	return id, err
}

type stoppableSink struct {
	s    *stoppableSpace
	sink space.Sink
}

func (g stoppableSink) Deliver(t tuple.Tuple, h space.Hold) {
	pass(g.s.beforeSink)
	g.sink.Deliver(t, h)
}

// stop returns a gate that reports its caller on reached and holds it
// until open is closed.
func stop() (gate func(), reached, open chan struct{}) {
	reached, open = make(chan struct{}, 1), make(chan struct{})
	return func() { reached <- struct{}{}; <-open }, reached, open
}

// gatedRig is one instance, a, on a gated store, and x, a bare endpoint
// playing the requester by hand.
type gatedRig struct {
	*rig
	a  *Instance
	sp *stoppableSpace
	x  transport.Endpoint
}

func newGatedRig(t *testing.T, mutate func(*Config)) *gatedRig {
	t.Helper()
	g := &gatedRig{sp: &stoppableSpace{}}
	g.rig = newRig(t, []wire.Addr{"a"}, func(c *Config) {
		g.sp.Space = store.New(store.WithClock(c.Clock), store.WithMetrics(c.Metrics))
		c.Space = g.sp
		if mutate != nil {
			mutate(c)
		}
	})
	g.a = g.inst["a"]
	x, err := g.net.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	g.x = x
	g.net.SetVisible("a", "x", true)
	g.seedCaps("x")
	return g
}

// ask sends a's way the blocking op id, as x.
func (g *gatedRig) ask(id uint64, op wire.OpCode, ttl time.Duration) {
	g.t.Helper()
	if err := g.x.Send("a", &wire.Message{
		Type: wire.TOp, ID: id, From: "x", Op: op, Template: reqTmpl(), TTL: ttl,
	}); err != nil {
		g.t.Fatal(err)
	}
}

func (g *gatedRig) tell(m *wire.Message) {
	g.t.Helper()
	m.From = "x"
	if err := g.x.Send("a", m); err != nil {
		g.t.Fatal(err)
	}
}

// results returns the TResults x has been sent, waiting for want of them
// and then a little longer for one too many.
func (g *gatedRig) results(want int) []*wire.Message {
	g.t.Helper()
	var got []*wire.Message
	for {
		wait := 20 * time.Millisecond
		if len(got) < want {
			wait = 2 * time.Second
		}
		select {
		case m := <-g.x.Recv():
			if m.Type == wire.TResult {
				got = append(got, m)
			}
		case <-time.After(wait):
			if len(got) != want {
				g.t.Fatalf("x was sent %d results, want %d: %+v", len(got), want, got)
			}
			return got
		}
	}
}

// settledClean asserts that nothing of a served wait is left at a: no
// entry in the wait table, no slot held at the governor, no serve lease,
// no registered hold.
func (g *gatedRig) settledClean(what string) {
	g.t.Helper()
	eventually(g.t, what+": wait retired", func() bool { return waitCount(g.a) == 0 })
	g.a.gov.mu.Lock()
	total, peer := g.a.gov.totalWaits, g.a.gov.peers["x"].waits
	g.a.gov.mu.Unlock()
	if total != 0 || peer != 0 {
		g.t.Fatalf("%s: governor still counts %d waits (%d for x)", what, total, peer)
	}
	for _, l := range g.a.mgr.ActiveLeases() {
		if l.Op() != lease.OpOut {
			g.t.Fatalf("%s: %v lease still active", what, l.Op())
		}
	}
	eventually(g.t, what+": no hold left registered", func() bool {
		g.a.mu.Lock()
		defer g.a.mu.Unlock()
		return len(g.a.holds) == 0
	})
}

// resident reports whether a's space holds a req tuple.
func (g *gatedRig) resident() bool {
	_, ok := g.a.LocalSpace().Rdp(reqTmpl())
	return ok
}

// serveEdges are the two ways a wait ends with the requester still
// there to hear about it or not: its own cancel (no reply owed) and the
// serve lease running out (one not-found owed).
var serveEdges = []struct {
	name     string
	ttl      time.Duration
	end      func(g *gatedRig)
	notFound int
}{
	{"requester cancel", time.Hour, func(g *gatedRig) {
		g.tell(&wire.Message{Type: wire.TCancel, ID: 1})
		// The cancel is handled on a's receive loop; a later frame through
		// the same loop proves it has been.
		g.tell(&wire.Message{Type: wire.TDiscover, ID: 99})
		for m := range g.x.Recv() {
			if m.Type == wire.TAnnounce && m.ID == 99 {
				return
			}
		}
	}, 0},
	{"serve lease expiry", time.Second, func(g *gatedRig) { g.clk.Advance(2 * time.Second) }, 1},
}

// TestCancelledServeWaitKeepsCommittedTuple drives both end edges of a
// served take against a delivery in every order the call form allows.
// The space's claim and the sink's check are two instants, and an edge
// can land before the first (the out stores its tuple), between them
// (the hold is committed, then released: at-most-once is trivially kept
// by answering nobody, no-loss is the property at stake), or after the
// second (the reply goes out under a registered hold and the requester,
// which has moved on, releases it). An edge can also land before
// serveBlocking has a handle to cancel, and a match can already be
// resident when the wait parks. In every one the tuple ends up back in
// the space exactly once, the wait is retired exactly once, and x hears
// a found reply only in the order where a had committed to sending it.
func TestCancelledServeWaitKeepsCommittedTuple(t *testing.T) {
	for _, e := range serveEdges {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Run("between the claim and the sink's check", func(t *testing.T) {
				g := newGatedRig(t, nil)
				gate, reached, open := stop()
				g.sp.beforeSink = gate
				g.ask(1, wire.OpIn, e.ttl)
				eventually(t, "wait parked", func() bool { return waitCount(g.a) == 1 })
				outDone := make(chan error, 1)
				go func() { outDone <- g.a.Out(req(1), hourLease()) }()
				<-reached
				if g.resident() {
					t.Fatal("the out was not committed to the parked taker")
				}
				e.end(g)
				close(open)
				if err := <-outDone; err != nil {
					t.Fatal(err)
				}
				g.settledClean("released in the sink")
				if !g.resident() {
					t.Fatal("tuple lost: committed to an ended wait and never put back")
				}
				if n := g.met.Get(trace.CtrTuplesReinstated); n != 1 {
					t.Fatalf("reinstated = %d, want the one committed hold", n)
				}
				for _, m := range g.results(e.notFound) {
					if m.Found {
						t.Fatalf("found reply %+v sent for an ended wait", m)
					}
				}
			})

			t.Run("after the sink's check", func(t *testing.T) {
				// The reply is on its way out when the edge lands: stop it in
				// a's endpoint.
				gate, reached, open := stop()
				g := newGatedRig(t, func(c *Config) { c.Endpoint = resultGate{c.Endpoint, gate} })
				g.ask(1, wire.OpIn, e.ttl)
				eventually(t, "wait parked", func() bool { return waitCount(g.a) == 1 })
				outDone := make(chan error, 1)
				go func() { outDone <- g.a.Out(req(1), hourLease()) }()
				<-reached
				e.end(g)
				close(open)
				if err := <-outDone; err != nil {
					t.Fatal(err)
				}
				rs := g.results(1)
				if !rs[0].Found || rs[0].HoldID == 0 || !rs[0].Tuple.Equal(req(1)) {
					t.Fatalf("reply %+v, want req(1) under a hold", rs[0])
				}
				if g.resident() {
					t.Fatal("tuple resident while its found reply is outstanding")
				}
				// x had given up (or run out of lease): it releases what it
				// was sent, as releaseLate does.
				g.tell(&wire.Message{Type: wire.TRelease, ID: 1, HoldID: rs[0].HoldID})
				eventually(t, "released tuple back", g.resident)
				g.settledClean("answered, then released by the requester")
			})

			t.Run("before the handle is stored", func(t *testing.T) {
				g := newGatedRig(t, nil)
				gate, reached, open := stop()
				g.sp.afterPark = gate
				g.ask(1, wire.OpIn, e.ttl)
				<-reached
				e.end(g)
				close(open)
				g.settledClean("cancelled by serveBlocking")
				if err := g.a.Out(req(1), hourLease()); err != nil {
					t.Fatal(err)
				}
				if !g.resident() {
					t.Fatal("an out after the wait ended went to it anyway")
				}
				for _, m := range g.results(e.notFound) {
					if m.Found {
						t.Fatalf("found reply %+v sent for an ended wait", m)
					}
				}
			})

			t.Run("before a resident match is delivered inside Park", func(t *testing.T) {
				g := newGatedRig(t, nil)
				gate, reached, open := stop()
				g.sp.beforePark = gate
				g.ask(1, wire.OpIn, e.ttl)
				<-reached // the immediate Hold has missed; now the tuple arrives
				if err := g.a.Out(req(1), hourLease()); err != nil {
					t.Fatal(err)
				}
				e.end(g)
				close(open)
				g.settledClean("released inside Park")
				if !g.resident() {
					t.Fatal("tuple lost: held for an ended wait inside Park and never put back")
				}
				for _, m := range g.results(e.notFound) {
					if m.Found {
						t.Fatalf("found reply %+v sent for an ended wait", m)
					}
				}
			})
		})
	}
}

// resultGate is an endpoint that passes every outbound TResult through a
// gate first.
type resultGate struct {
	transport.Endpoint
	gate func()
}

func (e resultGate) Send(to wire.Addr, m *wire.Message) error {
	if m.Type == wire.TResult {
		e.gate()
	}
	return e.Endpoint.Send(to, m)
}

// TestResidentMatchServedInsidePark: a tuple that arrives between the
// serve path's immediate probe and its Park is delivered by Park itself,
// on the serve worker, before there is a handle — and is answered like
// any other. A retransmission of the rd is answered from its record, not
// re-served; one of the in, once its hold is accepted, gets silence and
// takes nothing.
func TestResidentMatchServedInsidePark(t *testing.T) {
	for _, op := range []wire.OpCode{wire.OpIn, wire.OpRd} {
		g := newGatedRig(t, nil)
		gate, reached, open := stop()
		g.sp.beforePark = gate
		g.ask(1, op, time.Hour)
		<-reached
		if err := g.a.Out(req(1), hourLease()); err != nil {
			t.Fatal(err)
		}
		close(open)
		rs := g.results(1)
		if !rs[0].Found || !rs[0].Tuple.Equal(req(1)) || (rs[0].HoldID != 0) != op.Removes() {
			t.Fatalf("%v: reply %+v", op, rs[0])
		}
		if op.Removes() {
			g.tell(&wire.Message{Type: wire.TAccept, ID: 2, HoldID: rs[0].HoldID})
			eventually(t, "accepted tuple gone", func() bool { return g.a.LocalSpace().Count() == 1 })
		} else if !g.resident() {
			t.Fatal("a served rd took the tuple")
		}
		g.settledClean(op.String() + " served inside Park")
		n, drops := g.a.LocalSpace().Count(), g.met.Get(trace.CtrDedupDrops)
		g.ask(1, op, time.Hour)
		eventually(t, "the retransmission admitted as a duplicate", func() bool {
			return g.met.Get(trace.CtrDedupDrops) == drops+1
		})
		if !op.Removes() {
			if rs := g.results(1); !rs[0].Found || !rs[0].Tuple.Equal(req(1)) {
				t.Fatalf("%v: duplicate op answered %+v, want the recorded reply", op, rs[0])
			}
		} else {
			g.results(0)
		}
		if got := g.a.LocalSpace().Count(); got != n {
			t.Fatalf("%v: space count %d after the retransmission, was %d", op, got, n)
		}
		g.settledClean(op.String() + " retransmitted")
	}
}

// sentResultGate is an endpoint that passes its first outbound TResult
// through a gate once it has been sent.
type sentResultGate struct {
	transport.Endpoint
	once sync.Once
	gate func()
}

func (e *sentResultGate) Send(to wire.Addr, m *wire.Message) error {
	err := e.Endpoint.Send(to, m)
	if m.Type == wire.TResult {
		e.once.Do(e.gate)
	}
	return err
}

// TestAcceptDuringQueuedRun: on a space that may block, a take runs on a
// serve worker, and its requester can accept the hold after the reply has
// gone out but before the run is filed. The accept drops the reply from
// the running record; finishRun then files an answered tombstone. A copy
// that arrived during the run, and so was owed the reply, gets nothing
// (its requester has its answer), and neither does one after the run.
func TestAcceptDuringQueuedRun(t *testing.T) {
	gate, reached, open := stop()
	g := newGatedRig(t, func(c *Config) { c.Endpoint = &sentResultGate{Endpoint: c.Endpoint, gate: gate} })
	release := sync.OnceFunc(func() { close(open) })
	defer release() // a failure below must not leave the worker stopped for Close
	if err := g.a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	take := func() { g.ask(1, wire.OpInp, time.Hour) }
	take()
	<-reached // the reply is out; the worker has not filed the run
	rs := g.results(1)
	if !rs[0].Found || rs[0].HoldID == 0 {
		t.Fatalf("reply %+v, want a found one under a hold", rs[0])
	}
	drops := g.met.Get(trace.CtrDedupDrops)
	take() // owed the reply at finish, as things stand
	g.tell(&wire.Message{Type: wire.TAccept, ID: 2, HoldID: rs[0].HoldID})
	for m := range g.x.Recv() {
		if m.Type == wire.TAck && m.ID == 2 {
			break
		}
	}
	if got := g.met.Get(trace.CtrDedupDrops); got != drops+1 {
		t.Fatalf("%s = %d, want %d: the copy during the run", trace.CtrDedupDrops, got, drops+1)
	}
	running := func(e request) bool { return e.state == reqAdmitted && e.reply == nil && e.accepted && e.dup }
	if n := countRequests(g.a, running); n != 1 {
		t.Fatalf("%d running records accepted without a reply, want the take's", n)
	}
	n := g.a.LocalSpace().Count()
	release()
	quiesceServe(t, g.a)
	tombstone := func(f finished) bool { return f.kind == ansAccepted }
	if n := countServed(g.a, tombstone); n != 1 {
		t.Fatalf("%d filed answered tombstones after the run, want the take's", n)
	}
	g.results(0)
	take()
	eventually(t, "the copy after the run admitted as a duplicate", func() bool {
		return g.met.Get(trace.CtrDedupDrops) == drops+2
	})
	g.results(0)
	if got := g.a.LocalSpace().Count(); got != n {
		t.Fatalf("space count %d after the copies, was %d", got, n)
	}
	g.settledClean("accepted during its run")
}

// TestOutLeaseReleasedWhenAcceptBeatsTheRecord: the Out that matches a
// parked remote taker sends the reply before it returns, so the taker's
// accept can be settled — removal report and all — before the out has
// learnt the tuple's id. The out's reservation must end with the tuple all
// the same, not sit in the manager: under DefaultCapacity a farm's worth
// of those is governor pressure out of thin air.
func TestOutLeaseReleasedWhenAcceptBeatsTheRecord(t *testing.T) {
	g := newGatedRig(t, nil)
	g.ask(1, wire.OpIn, time.Hour)
	eventually(t, "wait parked", func() bool { return waitCount(g.a) == 1 })
	gate, reached, open := stop()
	g.sp.afterOut = gate
	outDone := make(chan error, 1)
	go func() { outDone <- g.a.Out(req(1), hourLease()) }()
	<-reached // the reply has gone out; the space's Out has not returned
	rs := g.results(1)
	if !rs[0].Found || rs[0].HoldID == 0 {
		t.Fatalf("reply %+v, want a hold", rs[0])
	}
	g.tell(&wire.Message{Type: wire.TAccept, ID: 2, HoldID: rs[0].HoldID})
	for m := range g.x.Recv() {
		if m.Type == wire.TAck && m.ID == 2 {
			break // the accept is settled
		}
	}
	close(open)
	if err := <-outDone; err != nil {
		t.Fatal(err)
	}
	if st := g.a.LeaseManager().Stats(); st.Active != 0 || st.BytesHeld != 0 {
		t.Fatalf("%d leases active, %d bytes held with nothing stored and nothing served", st.Active, st.BytesHeld)
	}
	// An out with no taker parked is recorded and released as ever.
	g.sp.afterOut = nil
	if err := g.a.Out(req(2), hourLease()); err != nil {
		t.Fatal(err)
	}
	if st := g.a.LeaseManager().Stats(); st.Active != 1 {
		t.Fatalf("%d leases active with one tuple stored", st.Active)
	}
	if _, ok, _ := g.a.Inp(context.Background(), reqTmpl(), nil); !ok {
		t.Fatal("stored tuple not takeable")
	}
	if st := g.a.LeaseManager().Stats(); st.Active != 0 {
		t.Fatalf("%d leases active after the take", st.Active)
	}
}

// TestOutLeaseFollowsReleasedTuple: a hold that is released puts the tuple
// back as the entry it was, so the lease its out recorded against the id
// — and with replication, the copies placed under it — still end with
// the tuple when somebody takes it at last. (Reinstated under a fresh id,
// the second take's removal named nothing: the lease stayed active until
// its deadline and the copies until theirs, which is how C5 came to find
// copies of a collected token on two nodes.)
func TestOutLeaseFollowsReleasedTuple(t *testing.T) {
	g := newGatedRig(t, nil)
	if err := g.a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	take := func(op uint64) *wire.Message {
		g.ask(op, wire.OpInp, time.Minute)
		rs := g.results(1)
		if !rs[0].Found || rs[0].HoldID == 0 {
			t.Fatalf("take %d answered %+v", op, rs[0])
		}
		return rs[0]
	}
	first := take(1)
	g.tell(&wire.Message{Type: wire.TRelease, ID: 1, HoldID: first.HoldID}) // lost the race elsewhere
	eventually(t, "released tuple back", g.resident)
	if st := g.a.LeaseManager().Stats(); st.Active != 1 {
		t.Fatalf("%d leases active with the tuple back in the space, want its out-lease", st.Active)
	}
	second := take(2)
	g.tell(&wire.Message{Type: wire.TAccept, ID: 3, HoldID: second.HoldID})
	eventually(t, "out-lease released with the accepted tuple", func() bool {
		return g.a.LeaseManager().Stats().Active == 0
	})
}

// TestParkedRemoteWaitsHoldNoGoroutine: 256 blocking ops from a bare
// endpoint park at one instance, half of them reads, and the instance runs
// no more goroutines than before — each used to park one.
func TestParkedRemoteWaitsHoldNoGoroutine(t *testing.T) {
	const n = 256
	g := newGatedRig(t, func(c *Config) { c.Governor.MaxPeerWaits = n })
	before := coreGoroutines()
	for id := uint64(1); id <= n; id++ {
		op := wire.OpIn
		if id%2 == 0 {
			op = wire.OpRd
		}
		g.ask(id, op, time.Hour)
	}
	eventually(t, "256 waits parked", func() bool { return waitCount(g.a) == n })
	if d := grown(before, coreGoroutines()); len(d) != 0 {
		t.Fatalf("%d parked waits changed the node's goroutines by %v, want none", n, d)
	}
	// One out serves every reader and one taker, all from the caller.
	if err := g.a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, m := range g.results(n/2 + 1) {
		if !m.Found || !m.Tuple.Equal(req(1)) {
			t.Fatalf("reply %+v", m)
		}
		if m.HoldID != 0 {
			held++
		}
	}
	if held != 1 {
		t.Fatalf("%d holds handed out for one tuple", held)
	}
	if got := waitCount(g.a); got != n/2-1 {
		t.Fatalf("%d waits parked after the out, want the %d other takers", got, n/2-1)
	}
}

// TestServedWaitEndsOnceOnEveryEdge: however a parked wait ends without
// a match, it ends once — the governor's slot and the serve lease come
// back, and the requester hears the one not-found it is owed, or nothing.
func TestServedWaitEndsOnceOnEveryEdge(t *testing.T) {
	serveLease := func(g *gatedRig) *lease.Lease {
		for _, l := range g.a.mgr.ActiveLeases() {
			if l.Op() == lease.OpIn {
				return l
			}
		}
		g.t.Fatal("no serve lease")
		return nil
	}
	edges := []struct {
		name     string
		end      func(g *gatedRig)
		notFound int
		closed   bool
	}{
		{"lease expiry", func(g *gatedRig) { g.clk.Advance(time.Minute + time.Second) }, 1, false},
		{"shrunk lease", func(g *gatedRig) {
			if !serveLease(g).ShrinkDuration(time.Second) {
				g.t.Fatal("shrink moved nothing")
			}
			g.clk.Advance(time.Second)
		}, 1, false},
		{"revoked lease", func(g *gatedRig) {
			if n := g.a.mgr.Revoke(1); n != 1 {
				g.t.Fatalf("revoked %d leases", n)
			}
		}, 1, false},
		{"goodbye", func(g *gatedRig) { g.tell(&wire.Message{Type: wire.TGoodbye, ID: 7}) }, 0, false},
		{"orphan sweep", func(g *gatedRig) {
			g.net.SetVisible("a", "x", false)
			g.a.sweepOrphans() // suspect
			g.clk.Advance(g.a.tm.orphanGrace)
			g.a.sweepOrphans() // reap
		}, 0, false},
		{"shutdown", func(g *gatedRig) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := g.a.Shutdown(ctx); err != nil {
				g.t.Fatal(err)
			}
		}, 1, true},
		{"close", func(g *gatedRig) { g.a.Close() }, 0, true},
	}
	for _, e := range edges {
		e := e
		t.Run(e.name, func(t *testing.T) {
			g := newGatedRig(t, nil)
			g.ask(1, wire.OpIn, time.Minute)
			eventually(t, "wait parked", func() bool { return waitCount(g.a) == 1 })
			e.end(g)
			g.settledClean(e.name)
			for _, m := range g.results(e.notFound) {
				if m.Found || m.Busy {
					t.Fatalf("reply %+v, want a plain not-found", m)
				}
			}
			if e.closed {
				return
			}
			// The not-found was not cached and nothing lingers under the op's
			// key: the same op sent again parks a fresh wait, which an out
			// then serves.
			g.net.SetVisible("a", "x", true)
			g.ask(1, wire.OpIn, time.Minute)
			eventually(t, "fresh wait parked", func() bool { return waitCount(g.a) == 1 })
			if err := g.a.Out(req(1), hourLease()); err != nil {
				t.Fatal(err)
			}
			if rs := g.results(1); !rs[0].Found {
				t.Fatalf("fresh wait answered %+v", rs[0])
			}
		})
	}
}

// TestPanickingSinkIsTheWaitsProblem: the sink runs on the goroutine of
// whoever called Out. If it panics — here the endpoint does, under the
// reply — the panic is counted against the serve path, the wait is
// retired, and the application's Out returns nil.
func TestPanickingSinkIsTheWaitsProblem(t *testing.T) {
	g := newGatedRig(t, func(c *Config) {
		c.Endpoint = resultGate{c.Endpoint, func() { panic("endpoint fell over under a reply") }}
	})
	g.ask(1, wire.OpIn, time.Minute)
	eventually(t, "wait parked", func() bool { return waitCount(g.a) == 1 })
	if err := g.a.Out(req(1), hourLease()); err != nil {
		t.Fatalf("Out = %v, want nil: the panic was not the caller's", err)
	}
	if n := g.met.Get(trace.CtrPanics); n != 1 {
		t.Fatalf("core.panics = %d, want 1", n)
	}
	if g.a.LastPanic() == "" {
		t.Fatal("panic not recorded")
	}
	eventually(t, "wait retired", func() bool { return waitCount(g.a) == 0 })
	g.a.gov.mu.Lock()
	total := g.a.gov.totalWaits
	g.a.gov.mu.Unlock()
	if total != 0 {
		t.Fatalf("governor still counts %d waits", total)
	}
	// The hold the reply would have named rides out its grace and the
	// tuple comes back: nothing is lost to the panic.
	g.clk.Advance(time.Minute + g.a.tm.holdGrace)
	eventually(t, "tuple back after the hold's grace", g.resident)
}

// servedTakeAllocBudget is two objects above what an Out at one node plus
// one blocking In served for the other measures since the taker's lease
// lives in its walk's object and the served wait parks the received
// template uncopied (12 by AllocsPerRun; 15 before that, 16 before the
// served wait carried its serve lease, 19 before the stored entry became
// its own hold, the ack rode the pending hold and the take's op frame
// shared one object with its accept record, 22 before the walk stopped
// asking its lease for a Done channel, 41 before the served wait stopped
// parking a goroutine), in the farm's shape: eight takers, each parking
// again when it has been served.
// The race detector's leaky pools add a few, as for remoteTakeAllocBudget:
// 17–18 measured.
const (
	servedTakeAllocBudget      = 14
	servedTakeAllocBudgetLeaky = 20
)

func TestServedBlockingTakeAllocBudget(t *testing.T) {
	const takers = 8
	a, b := wallPair(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	tup, tmpl, terms := req(1), reqTmpl(), longLease()
	taken := make(chan error)
	stopped := make(chan struct{}, takers)
	for k := 0; k < takers; k++ {
		go func() {
			defer func() { stopped <- struct{}{} }()
			for {
				_, err := b.In(ctx, tmpl, terms)
				select {
				case taken <- err:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		for k := 0; k < takers; k++ {
			<-stopped
		}
	})
	round := func() {
		if err := a.Out(tup, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-taken; err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "eight waits parked at a", func() bool { return waitCount(a) == takers })
	for k := 0; k < 200; k++ {
		round() // pools, heaps and maps reach their steady size
	}
	budget := float64(servedTakeAllocBudget)
	if !poolsHold() {
		budget = servedTakeAllocBudgetLeaky
	}
	if allocs := testing.AllocsPerRun(2000, round); allocs > budget {
		t.Fatalf("Out + served blocking In: %.0f allocs, budget %.0f", allocs, budget)
	}
}
