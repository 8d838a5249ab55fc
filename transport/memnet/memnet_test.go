package memnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

func disc(from wire.Addr, id uint64) *wire.Message {
	return &wire.Message{Type: wire.TDiscover, ID: id, From: from}
}

func recvOne(t *testing.T, ep transport.Endpoint) *wire.Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("no message received")
		return nil
	}
}

func TestSendRequiresVisibility(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	if err := a.Send("b", disc("a", 1)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send without visibility: %v", err)
	}
	n.SetVisible("a", "b", true)
	if err := a.Send("b", disc("a", 2)); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if m.From != "a" || m.ID != 2 {
		t.Fatalf("got %+v", m)
	}
	// Symmetry.
	if err := b.Send("a", disc("b", 3)); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, a); m.From != "b" {
		t.Fatalf("got %+v", m)
	}
}

func TestSendToUnknownAddr(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	n.SetVisible("a", "ghost", true)
	if err := a.Send("ghost", disc("a", 1)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send to unknown: %v", err)
	}
}

func TestMulticastReachesOnlyVisible(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	n.SetVisible("a", "b", true)
	// c is not visible from a.
	cnt, err := a.Multicast(disc("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 1 {
		t.Fatalf("multicast offered to %d nodes, want 1", cnt)
	}
	if m := recvOne(t, b); m.Type != wire.TDiscover {
		t.Fatalf("b got %+v", m)
	}
	select {
	case m := <-c.Recv():
		t.Fatalf("invisible node received %+v", m)
	default:
	}
}

// TestMulticastSkip: a neighbour that a frame's Skip names is neither
// offered the frame nor counted, and a multicast that skips every
// neighbour puts no byte on the wire.
func TestMulticastSkip(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	n.ConnectAll()
	m := disc("a", 1)
	m.Skip = []wire.Addr{"b"}
	if cnt, err := a.Multicast(m); err != nil || cnt != 1 {
		t.Fatalf("multicast skipping b offered to %d nodes (%v), want 1", cnt, err)
	}
	if got := recvOne(t, c); got.ID != 1 {
		t.Fatalf("c got %+v", got)
	}
	select {
	case got := <-b.Recv():
		t.Fatalf("skipped node received %+v", got)
	default:
	}
	if got := met.Get(trace.CtrMulticastRecvs); got != 1 {
		t.Fatalf("multicast recvs = %d, want 1", got)
	}

	bytes := met.Get(trace.CtrBytesSent)
	m = disc("a", 2)
	m.Skip = []wire.Addr{"c", "b"}
	if cnt, err := a.Multicast(m); err != nil || cnt != 0 {
		t.Fatalf("multicast skipping everyone offered to %d nodes (%v), want 0", cnt, err)
	}
	if got := met.Get(trace.CtrBytesSent); got != bytes {
		t.Fatalf("multicast to nobody sent %d bytes", got-bytes)
	}
	if got := met.Get(trace.CtrMulticasts); got != 2 {
		t.Fatalf("multicasts = %d, want 2", got)
	}
}

// TestMulticastAllocatesNothing: listing the audience and its fault plans
// costs no object up to eight neighbours. Every frame is lost on
// the link, so no receiver decodes one and the count is the sender's.
func TestMulticastAllocatesNothing(t *testing.T) {
	for _, peers := range []int{1, 8} {
		n := New(WithLoss(1))
		a, _ := n.Attach("a")
		for k := 0; k < peers; k++ {
			n.Attach(wire.Addr(fmt.Sprintf("p%d", k)))
		}
		n.ConnectAll()
		m := disc("a", 1)
		if got := testing.AllocsPerRun(100, func() {
			if cnt, err := a.Multicast(m); err != nil || cnt != peers {
				t.Fatalf("multicast offered to %d nodes (%v), want %d", cnt, err, peers)
			}
		}); got != 0 {
			t.Errorf("multicast to %d neighbours: %.0f objects, want 0", peers, got)
		}
		n.Close()
	}
}

func TestVisibilityNotTransitive(t *testing.T) {
	// Paper Figure 1(c): B sees both A and C, but A does not see C.
	n := New()
	defer n.Close()
	a, _ := n.Attach("A")
	n.Attach("B")
	n.Attach("C")
	n.SetVisible("A", "B", true)
	n.SetVisible("B", "C", true)
	if !n.Visible("A", "B") || !n.Visible("B", "C") {
		t.Fatal("configured edges missing")
	}
	if n.Visible("A", "C") {
		t.Fatal("visibility leaked transitively")
	}
	if err := a.Send("C", disc("A", 1)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("A->C should be unreachable: %v", err)
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	n := New()
	defer n.Close()
	n.Attach("a")
	n.SetVisible("a", "a", true)
	if n.Visible("a", "a") {
		t.Fatal("self-visibility recorded")
	}
}

func TestConnectAllAndNeighbors(t *testing.T) {
	n := New()
	defer n.Close()
	n.Attach("a")
	n.Attach("b")
	n.Attach("c")
	n.ConnectAll()
	if got := len(n.Neighbors("a")); got != 2 {
		t.Fatalf("neighbors of a = %d", got)
	}
	n.Isolate("a")
	if got := len(n.Neighbors("a")); got != 0 {
		t.Fatalf("after Isolate, neighbors = %d", got)
	}
	if !n.Visible("b", "c") {
		t.Fatal("Isolate removed unrelated edge")
	}
}

func TestPartition(t *testing.T) {
	n := New()
	defer n.Close()
	for _, a := range []wire.Addr{"a", "b", "c", "d"} {
		n.Attach(a)
	}
	n.Partition([]wire.Addr{"a", "b"}, []wire.Addr{"c", "d"})
	if !n.Visible("a", "b") || !n.Visible("c", "d") {
		t.Fatal("intra-group edges missing")
	}
	if n.Visible("a", "c") || n.Visible("b", "d") {
		t.Fatal("cross-group edges present")
	}
}

func TestNodeCloseDepartsAndDropsEdges(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.ConnectAll()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatal("closed inbox delivered")
	}
	if err := a.Send("b", disc("a", 1)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send to departed node: %v", err)
	}
	if _, err := a.Multicast(disc("a", 2)); err != nil {
		t.Fatal(err)
	}
	// Address can be reattached after departure (node comes back).
	if _, err := n.Attach("b"); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := New()
	defer n.Close()
	n.Attach("a")
	if _, err := n.Attach("a"); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestClosedEndpointSends(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	n.Attach("b")
	n.ConnectAll()
	a.Close()
	if err := a.Send("b", disc("a", 1)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send on closed endpoint: %v", err)
	}
	if _, err := a.Multicast(disc("a", 1)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("multicast on closed endpoint: %v", err)
	}
}

func TestLatencyDeliversViaClock(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(WithClock(clk), WithLatency(50*time.Millisecond))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.ConnectAll()
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("delivered before latency elapsed")
	default:
	}
	clk.Advance(50 * time.Millisecond)
	if m := recvOne(t, b); m.ID != 1 {
		t.Fatalf("got %+v", m)
	}
}

func TestLossDropsAndCounts(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithLoss(1.0), WithMetrics(met), WithSeed(7))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.ConnectAll()
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err) // loss is silent
	}
	select {
	case <-b.Recv():
		t.Fatal("lossy network delivered")
	default:
	}
	if met.Get(trace.CtrMsgsDropped) == 0 {
		t.Fatal("drop not counted")
	}
}

func TestMetricsAccounting(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met))
	defer n.Close()
	a, _ := n.Attach("a")
	n.Attach("b")
	n.Attach("c")
	n.ConnectAll()
	a.Send("b", disc("a", 1))
	a.Multicast(disc("a", 2))
	if met.Get(trace.CtrUnicasts) != 1 {
		t.Fatalf("unicasts = %d", met.Get(trace.CtrUnicasts))
	}
	if met.Get(trace.CtrMulticasts) != 1 {
		t.Fatalf("multicasts = %d", met.Get(trace.CtrMulticasts))
	}
	if met.Get(trace.CtrMulticastRecvs) != 2 {
		t.Fatalf("multicast recvs = %d", met.Get(trace.CtrMulticastRecvs))
	}
	if met.Get(trace.CtrBytesSent) == 0 {
		t.Fatal("bytes not counted")
	}
}

func TestChurnFlipsEdges(t *testing.T) {
	n := New(WithSeed(3))
	defer n.Close()
	for _, a := range []wire.Addr{"a", "b", "c", "d", "e"} {
		n.Attach(a)
	}
	changed := n.Churn(20)
	if changed == 0 {
		t.Fatal("churn changed nothing")
	}
	// Single node network: churn is a no-op.
	n2 := New()
	defer n2.Close()
	n2.Attach("solo")
	if n2.Churn(5) != 0 {
		t.Fatal("churn on single node changed edges")
	}
}

func TestNetworkCloseRefusesAttach(t *testing.T) {
	n := New()
	n.Close()
	n.Close() // idempotent
	if _, err := n.Attach("a"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("attach after close: %v", err)
	}
}

func TestMessagePayloadSurvivesTransit(t *testing.T) {
	// Transit round-trips through the wire codec; a full message must
	// arrive intact.
	n := New()
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.ConnectAll()
	msg := &wire.Message{Type: wire.TAck, ID: 77, From: "a", OK: true, Err: "warn"}
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b)
	if got.Type != wire.TAck || got.ID != 77 || !got.OK || got.Err != "warn" {
		t.Fatalf("payload mangled: %+v", got)
	}
}

func TestAddrs(t *testing.T) {
	n := New()
	defer n.Close()
	n.Attach("a")
	n.Attach("b")
	if len(n.Addrs()) != 2 {
		t.Fatalf("Addrs = %v", n.Addrs())
	}
}

func TestSetLossAndLatencyAtRuntime(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(WithClock(clk), WithSeed(5))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.ConnectAll()
	// Initially lossless and instant.
	a.Send("b", disc("a", 1))
	if m := recvOne(t, b); m.ID != 1 {
		t.Fatal("baseline delivery failed")
	}
	// Total loss: nothing arrives.
	n.SetLoss(1.0)
	a.Send("b", disc("a", 2))
	select {
	case <-b.Recv():
		t.Fatal("delivered under total loss")
	default:
	}
	// Heal and add latency: delivery waits for the clock.
	n.SetLoss(0)
	n.SetLatency(time.Second)
	a.Send("b", disc("a", 3))
	select {
	case <-b.Recv():
		t.Fatal("latency ignored")
	default:
	}
	clk.Advance(time.Second)
	if m := recvOne(t, b); m.ID != 3 {
		t.Fatalf("got %+v", m)
	}
}

func TestMetricsAccessorAndInboxOverflow(t *testing.T) {
	n := New()
	defer n.Close()
	if n.Metrics() == nil {
		t.Fatal("Metrics accessor returned nil")
	}
	a, _ := n.Attach("a")
	n.Attach("b") // never drains its inbox
	n.ConnectAll()
	// Overfill b's inbox; overflow must be counted as drops, not block.
	for i := 0; i < inboxSize+10; i++ {
		if err := a.Send("b", disc("a", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n.Metrics().Get(trace.CtrMsgsDropped) < 10 {
		t.Fatalf("drops = %d, want >= 10", n.Metrics().Get(trace.CtrMsgsDropped))
	}
}

// --- fault injection -----------------------------------------------------

func TestDuplicationDeliversTwice(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met), WithFaults(Faults{Dup: 1.0}))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisible("a", "b", true)
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	first := recvOne(t, b)
	second := recvOne(t, b)
	if first.ID != 1 || second.ID != 1 {
		t.Fatalf("got %d and %d, want the same frame twice", first.ID, second.ID)
	}
	if met.Get(trace.CtrChaosDups) != 1 {
		t.Fatalf("dups counter = %d", met.Get(trace.CtrChaosDups))
	}
}

func TestCorruptionIsDetectedAndDropped(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met), WithFaults(Faults{Corrupt: 1.0}))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisible("a", "b", true)
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("corrupt frame delivered: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if met.Get(trace.CtrChaosCorrupts) != 1 || met.Get(trace.CtrCorruptFrames) != 1 {
		t.Fatalf("corrupt counters = %d injected / %d rejected",
			met.Get(trace.CtrChaosCorrupts), met.Get(trace.CtrCorruptFrames))
	}
}

func TestReorderHoldsFrameBehindLaterTraffic(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisible("a", "b", true)
	// Reorder exactly the first frame: set the knob, send, clear, send.
	n.SetFaults(Faults{Reorder: 1.0})
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(Faults{})
	if err := a.Send("b", disc("a", 2)); err != nil {
		t.Fatal(err)
	}
	first := recvOne(t, b)
	second := recvOne(t, b)
	if first.ID != 2 || second.ID != 1 {
		t.Fatalf("delivery order = %d,%d, want 2,1", first.ID, second.ID)
	}
	if met.Get(trace.CtrChaosReorders) != 1 {
		t.Fatalf("reorders counter = %d", met.Get(trace.CtrChaosReorders))
	}
}

func TestReorderedFrameFlushesWithoutLaterTraffic(t *testing.T) {
	n := New(WithFaults(Faults{Reorder: 1.0}))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisible("a", "b", true)
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	// No later traffic: the flush timer must still deliver the frame.
	if m := recvOne(t, b); m.ID != 1 {
		t.Fatalf("got %+v", m)
	}
}

func TestPerEdgeFaultOverrides(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	_, _ = b, c
	n.ConnectAll()
	n.SetEdgeFaults("a", "b", Faults{Loss: 1.0})
	// a->b is black-holed, a->c is untouched.
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("c", disc("a", 2)); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, c); m.ID != 2 {
		t.Fatalf("got %+v", m)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("lossy edge delivered: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	n.ClearEdgeFaults("a", "b")
	if err := a.Send("b", disc("a", 3)); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b); m.ID != 3 {
		t.Fatalf("after clear: got %+v", m)
	}
}

func TestJitterDelaysDelivery(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(WithClock(clk), WithFaults(Faults{Latency: time.Millisecond, Jitter: 4 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisible("a", "b", true)
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("delivered before time advanced: %+v", m)
	default:
	}
	clk.Advance(5 * time.Millisecond) // latency + max jitter
	if m := recvOne(t, b); m.ID != 1 {
		t.Fatalf("got %+v", m)
	}
}

// --- mobility: directed edges, in-flight drops, schedules ----------------

func TestOneWayEdgeDeliversOnlyForward(t *testing.T) {
	n := New()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisibleOneWay("a", "b", true)

	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatalf("forward send: %v", err)
	}
	if m := recvOne(t, b); m.ID != 1 {
		t.Fatalf("got %+v", m)
	}
	if err := b.Send("a", disc("b", 2)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("reverse send err = %v, want ErrUnreachable", err)
	}
	if n.Visible("a", "b") {
		t.Fatal("Visible must require both directions")
	}
	if !n.VisibleOneWay("a", "b") || n.VisibleOneWay("b", "a") {
		t.Fatal("VisibleOneWay wrong")
	}
	// Multicast from b reaches nobody (no outbound edge); from a it
	// reaches b.
	if cnt, _ := b.Multicast(disc("b", 3)); cnt != 0 {
		t.Fatalf("b multicast reached %d", cnt)
	}
	if cnt, _ := a.Multicast(disc("a", 4)); cnt != 1 {
		t.Fatalf("a multicast reached %d", cnt)
	}
}

func TestLatentFrameDroppedWhenEdgeVanishes(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	n := New(WithClock(clk), WithMetrics(met), WithLatency(10*time.Millisecond))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	_ = a
	n.SetVisible("a", "b", true)

	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatalf("send: %v", err)
	}
	// The frame is in flight; the edge goes down before delivery.
	n.SetVisible("a", "b", false)
	clk.Advance(20 * time.Millisecond)
	select {
	case m := <-b.Recv():
		t.Fatalf("stale frame delivered: %+v", m)
	default:
	}
	if met.Get(trace.CtrStaleDrops) != 1 {
		t.Fatalf("stale drops = %d, want 1", met.Get(trace.CtrStaleDrops))
	}

	// Control: with the edge up the same flight delivers.
	n.SetVisible("a", "b", true)
	if err := a.Send("b", disc("a", 2)); err != nil {
		t.Fatalf("send: %v", err)
	}
	clk.Advance(20 * time.Millisecond)
	if m := recvOne(t, b); m.ID != 2 {
		t.Fatalf("got %+v", m)
	}
}

func TestHeldBackFrameDroppedWhenEdgeGoesInvisible(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	met := &trace.Metrics{}
	n := New(WithClock(clk), WithMetrics(met), WithFaults(Faults{Reorder: 1.0}), WithSeed(3))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.SetVisible("a", "b", true)

	// Reorder=1 parks the frame in b's hold-back queue.
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("frame was not held back: %+v", m)
	default:
	}
	// Edge goes invisible before the flush timer fires: the held frame
	// must be dropped, not delivered stale across the partition.
	n.SetVisible("a", "b", false)
	clk.Advance(5 * time.Millisecond)
	select {
	case m := <-b.Recv():
		t.Fatalf("stale held-back frame delivered: %+v", m)
	default:
	}
	if met.Get(trace.CtrStaleDrops) != 1 {
		t.Fatalf("stale drops = %d, want 1", met.Get(trace.CtrStaleDrops))
	}
}

func TestChurnComposesWithPerEdgeFaults(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met), WithSeed(11))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.ConnectAll()
	n.SetEdgeFaults("a", "b", Faults{Loss: 1.0})

	// The per-edge fault plan survives churn flips of the same edge: the
	// override is keyed by the link, not by its current visibility.
	for n.Visible("a", "b") {
		n.Churn(1)
	}
	for !n.Visible("a", "b") {
		n.Churn(1)
	}
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("frame survived Loss=1 edge after churn: %+v", m)
	default:
	}
	if met.Get(trace.CtrMsgsDropped) == 0 {
		t.Fatal("loss not counted")
	}
	// Clearing the override restores the default (perfect) plan.
	n.ClearEdgeFaults("a", "b")
	if err := a.Send("b", disc("a", 2)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if m := recvOne(t, b); m.ID != 2 {
		t.Fatalf("got %+v", m)
	}
	_ = b
}

func TestPartitionComposesWithPerEdgeFaults(t *testing.T) {
	met := &trace.Metrics{}
	n := New(WithMetrics(met), WithSeed(5))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	_ = c
	n.SetEdgeFaults("a", "b", Faults{Loss: 1.0})
	n.Partition([]wire.Addr{"a", "b"}, []wire.Addr{"c"})

	// Partition rebuilt the visibility relation, but the lossy override
	// on a<->b still governs the re-created edge.
	if err := a.Send("b", disc("a", 1)); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-b.Recv():
		t.Fatalf("frame survived Loss=1 edge after partition: %+v", m)
	default:
	}
	// Cross-partition stays unreachable regardless of faults.
	if err := a.Send("c", disc("a", 2)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("cross-partition err = %v", err)
	}
}

func TestScheduledVisibilityTrace(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := New(WithClock(clk))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")
	_, _, _ = a, b, c

	// A timed trace: a<->b up at t=10ms, partitioned {a} vs {b,c} at
	// t=20ms, fully healed at t=30ms, one-way a->c at t=40ms.
	n.ScheduleVisible(10*time.Millisecond, "a", "b", true)
	n.SchedulePartition(20*time.Millisecond, []wire.Addr{"a"}, []wire.Addr{"b", "c"})
	n.ScheduleConnectAll(30 * time.Millisecond)

	if n.Visible("a", "b") {
		t.Fatal("edge up before schedule")
	}
	clk.Advance(10 * time.Millisecond)
	if !n.Visible("a", "b") {
		t.Fatal("t=10ms: a<->b should be up")
	}
	clk.Advance(10 * time.Millisecond)
	if n.Visible("a", "b") || !n.Visible("b", "c") {
		t.Fatal("t=20ms: partition not applied")
	}
	clk.Advance(10 * time.Millisecond)
	if !n.Visible("a", "b") || !n.Visible("a", "c") {
		t.Fatal("t=30ms: heal not applied")
	}
	n.ScheduleVisibleOneWay(10*time.Millisecond, "c", "a", false)
	clk.Advance(10 * time.Millisecond)
	if n.VisibleOneWay("c", "a") || !n.VisibleOneWay("a", "c") {
		t.Fatal("t=40ms: one-way break not applied")
	}
}
