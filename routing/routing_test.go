package routing_test

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"tiamat/internal/core"
	"tiamat/routing"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

func TestBackboneSelectsPersistentHighDegree(t *testing.T) {
	s := routing.NewSelector(routing.Config{VisWindow: 4, MinPersistence: 0.75, MinDegree: 2, MaxBackbone: 2})
	// hub is always visible with high degree; drifter comes and goes;
	// leaf is persistent but poorly connected.
	s.SetDegree("hub", 5)
	s.SetDegree("drifter", 5)
	s.SetDegree("leaf", 1)
	s.Observe([]wire.Addr{"hub", "leaf"})
	s.Observe([]wire.Addr{"hub", "drifter", "leaf"})
	s.Observe([]wire.Addr{"hub", "leaf"})
	s.Observe([]wire.Addr{"hub", "leaf"})
	bb := s.Backbone()
	if len(bb) != 1 || bb[0] != "hub" {
		t.Fatalf("backbone = %v, want [hub]", bb)
	}
}

func TestBackboneBounded(t *testing.T) {
	s := routing.NewSelector(routing.Config{MaxBackbone: 2, MinDegree: 1, MinPersistence: 0.5})
	for _, a := range []wire.Addr{"a", "b", "c", "d"} {
		s.SetDegree(a, 3)
	}
	s.Observe([]wire.Addr{"a", "b", "c", "d"})
	s.Observe([]wire.Addr{"a", "b", "c", "d"})
	bb := s.Backbone()
	if len(bb) != 2 {
		t.Fatalf("backbone = %v, want 2 entries", bb)
	}
}

func TestBackboneEmptyWithoutObservations(t *testing.T) {
	s := routing.NewSelector(routing.Config{})
	if bb := s.Backbone(); len(bb) != 0 {
		t.Fatalf("backbone = %v, want empty", bb)
	}
}

func TestBackboneTieBreaksByDegreeThenAddr(t *testing.T) {
	s := routing.NewSelector(routing.Config{MinDegree: 1, MinPersistence: 0.5, MaxBackbone: 3})
	s.SetDegree("low", 1)
	s.SetDegree("high", 9)
	s.SetDegree("also9", 9)
	s.Observe([]wire.Addr{"low", "high", "also9"})
	s.Observe([]wire.Addr{"low", "high", "also9"})
	bb := s.Backbone()
	if len(bb) != 3 || bb[0] != "also9" || bb[1] != "high" || bb[2] != "low" {
		t.Fatalf("backbone = %v", bb)
	}
}

// TestRelayDeliveryEndToEnd proves the §6 scenario: A and C are not
// mutually visible, but both see backbone node B; with RouteRelay, a
// tuple travelling "back" to C is relayed via B instead of falling back
// to the local space.
func TestRelayDeliveryEndToEnd(t *testing.T) {
	clkNet := memnet.New()
	defer clkNet.Close()
	epA, _ := clkNet.Attach("A")
	epB, _ := clkNet.Attach("B")
	epC, _ := clkNet.Attach("C")

	a, err := core.New(core.Config{Endpoint: epA, RoutePolicy: core.RouteRelay})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetRelays([]wire.Addr{"B"})
	b, err := core.New(core.Config{Endpoint: epB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := core.New(core.Config{Endpoint: epC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Topology: A-B and B-C only (figure 1c shape).
	clkNet.SetVisible("A", "B", true)
	clkNet.SetVisible("B", "C", true)

	// A has a result destined for C (e.g. obtained earlier); direct
	// delivery is impossible, the relay must carry it.
	payload := tuple.T(tuple.String("resp"), tuple.Int(1))
	if err := a.OutBack(core.Result{Tuple: payload, From: "C"}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := c.LocalSpace().Rdp(tuple.Tmpl(tuple.String("resp"), tuple.FormalInt())); ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("relayed tuple never arrived at C")
}

// TestRelayFallsBackLocallyWhenNoRelayWorks covers the RouteRelay
// fallback: no relay reachable, the tuple lands in the local space.
func TestRelayFallsBackLocallyWhenNoRelayWorks(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	epA, _ := net.Attach("A")
	a, err := core.New(core.Config{Endpoint: epA, RoutePolicy: core.RouteRelay})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetRelays([]wire.Addr{"B"})
	payload := tuple.T(tuple.String("resp"), tuple.Int(1))
	if err := a.OutBack(core.Result{Tuple: payload, From: "C"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LocalSpace().Rdp(tuple.Tmpl(tuple.String("resp"), tuple.FormalInt())); !ok {
		t.Fatal("tuple not in local space after relay fallback")
	}
}

// Verify integration with the core's SetRelays for dynamically computed
// backbones.
func TestSelectorFeedsInstanceRelays(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ep, _ := net.Attach("A")
	a, err := core.New(core.Config{Endpoint: ep, RoutePolicy: core.RouteRelay})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	s := routing.NewSelector(routing.Config{MinDegree: 1, MinPersistence: 0.5})
	s.SetDegree("B", 3)
	s.Observe([]wire.Addr{"B"})
	s.Observe([]wire.Addr{"B"})
	a.SetRelays(s.Backbone())
	// With no network path the OutBack still falls back locally; the
	// point is that SetRelays accepts the selector's output.
	if err := a.OutBack(core.Result{Tuple: tuple.T(tuple.Int(1)), From: "Z"}, nil); err != nil {
		t.Fatal(err)
	}
	_ = context.Background()
}

func TestPropBackboneSubsetOfObserved(t *testing.T) {
	prop := func(rounds [][]uint8, degrees [8]uint8) bool {
		s := routing.NewSelector(routing.Config{MinDegree: 1, MinPersistence: 0.1, MaxBackbone: 8})
		observed := map[wire.Addr]bool{}
		for a, d := range degrees {
			s.SetDegree(wire.Addr('a'+rune(a)), int(d))
		}
		for _, round := range rounds {
			var visible []wire.Addr
			for _, v := range round {
				addr := wire.Addr('a' + rune(v%8))
				visible = append(visible, addr)
				observed[addr] = true
			}
			s.Observe(visible)
		}
		for _, b := range s.Backbone() {
			if !observed[b] {
				return false
			}
		}
		return len(s.Backbone()) <= 8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
