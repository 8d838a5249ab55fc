// Differential tests: the naive reference space and the optimised store
// must agree on observable behaviour under random operation sequences,
// and a Tiamat instance must run unchanged on either (paper §3.1.2).
package naive

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tiamat/clock"
	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/space/spacetest"
	"tiamat/transport/memnet"
	"tiamat/tuple"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func item(tag string, v int64) tuple.Tuple {
	return tuple.T(tuple.String(tag), tuple.Int(v))
}

func tmpl(tag string) tuple.Template {
	return tuple.Tmpl(tuple.String(tag), tuple.FormalInt())
}

func TestNaiveBasics(t *testing.T) {
	s := New(nil)
	defer s.Close()
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("empty space matched")
	}
	id, err := s.Out(item("a", 1), time.Time{})
	if err != nil || id == 0 {
		t.Fatal(err)
	}
	if got, ok := s.Rdp(tmpl("a")); !ok || !got.Equal(item("a", 1)) {
		t.Fatalf("rdp = %v %v", got, ok)
	}
	if s.Count() != 1 || s.Bytes() == 0 || len(s.Snapshot()) != 1 {
		t.Fatal("accounting wrong")
	}
	if got, ok := s.Inp(tmpl("a")); !ok || !got.Equal(item("a", 1)) {
		t.Fatalf("inp = %v %v", got, ok)
	}
	if s.Count() != 0 {
		t.Fatal("inp did not remove")
	}
}

func TestNaiveWaitAndHold(t *testing.T) {
	s := New(nil)
	defer s.Close()
	w := s.Wait(tmpl("a"), true)
	s.Out(item("a", 1), time.Time{})
	if got, ok := <-w.Chan(); !ok || !got.Equal(item("a", 1)) {
		t.Fatal("waiter not served")
	}
	if s.Count() != 0 {
		t.Fatal("taker left tuple behind")
	}

	s.Out(item("a", 2), time.Time{})
	h, ok := s.Hold(tmpl("a"))
	if !ok {
		t.Fatal("hold failed")
	}
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("held tuple visible")
	}
	h.Release()
	h.Accept() // no-op after release
	if _, ok := s.Rdp(tmpl("a")); !ok {
		t.Fatal("released tuple missing")
	}
	h2, _ := s.Hold(tmpl("a"))
	h2.Accept()
	if s.Count() != 0 {
		t.Fatal("accepted hold not removed")
	}
}

// TestNaiveHoldWaiterContract runs the shared Park table: the oracle
// answers it the way the store and the durable wrapper do.
func TestNaiveHoldWaiterContract(t *testing.T) {
	spacetest.Parking(t, func(*testing.T) space.Space { return New(nil) })
}

func TestNaiveExpiry(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	s := New(clk)
	defer s.Close()
	s.Out(item("a", 1), epoch.Add(time.Second))
	clk.Advance(2 * time.Second)
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("expired tuple visible")
	}
	if s.Count() != 0 {
		t.Fatal("expired tuple counted")
	}
}

func TestNaiveRemoveAndClose(t *testing.T) {
	s := New(nil)
	id, _ := s.Out(item("a", 1), time.Time{})
	if !s.Remove(id) || s.Remove(id) {
		t.Fatal("Remove semantics wrong")
	}
	w := s.Wait(tmpl("a"), false)
	s.Close()
	s.Close()
	if _, ok := <-w.Chan(); ok {
		t.Fatal("waiter survived close")
	}
	if _, err := s.Out(item("a", 2), time.Time{}); err == nil {
		t.Fatal("out on closed space")
	}
	w2 := s.Wait(tmpl("a"), false)
	if _, ok := <-w2.Chan(); ok {
		t.Fatal("waiter on closed space served")
	}
	w2.Cancel()
}

// TestPropDifferentialAgainstStore runs identical random operation
// sequences against the naive space and the optimised store; both must
// agree on every observable (found/not-found, count) at every step.
func TestPropDifferentialAgainstStore(t *testing.T) {
	type op struct {
		Kind uint8
		Tag  uint8
		Val  int64
	}
	tags := []string{"a", "b", "c"}
	prop := func(ops []op) bool {
		clkA := clock.NewVirtual(epoch)
		clkB := clock.NewVirtual(epoch)
		naive := New(clkA)
		defer naive.Close()
		fast := store.New(store.WithClock(clkB), store.WithSeed(1))
		defer fast.Close()
		for _, o := range ops {
			tag := tags[int(o.Tag)%len(tags)]
			switch o.Kind % 4 {
			case 0: // out
				naive.Out(item(tag, o.Val), time.Time{})
				fast.Out(item(tag, o.Val), time.Time{})
			case 1: // rdp presence must agree
				_, okA := naive.Rdp(tmpl(tag))
				_, okB := fast.Rdp(tmpl(tag))
				if okA != okB {
					return false
				}
			case 2: // inp presence must agree (values may differ: the
				// choice among matches is nondeterministic by spec)
				_, okA := naive.Inp(tmpl(tag))
				_, okB := fast.Inp(tmpl(tag))
				if okA != okB {
					return false
				}
			case 3: // hold+release round trip is observably a no-op
				if hA, ok := naive.Hold(tmpl(tag)); ok {
					hA.Release()
				}
				if hB, ok := fast.Hold(tmpl(tag)); ok {
					hB.Release()
				}
			}
			if naive.Count() != fast.Count() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(11)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInstanceRunsOnNaiveSpace proves §3.1.2's replaceability claim: a
// full two-node Tiamat deployment works with the naive space plugged in.
func TestInstanceRunsOnNaiveSpace(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := memnet.New(memnet.WithClock(clk))
	defer net.Close()
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	net.ConnectAll()

	a, err := core.New(core.Config{Endpoint: epA, Clock: clk, Space: New(clk)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := core.New(core.Config{Endpoint: epB, Clock: clk, Space: New(clk)})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Out(item("x", 7), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Inp(context.Background(), tmpl("x"), nil)
	if err != nil || !ok || res.From != "a" {
		t.Fatalf("remote take on naive space: %+v %v %v", res, ok, err)
	}
	var sp space.Space = a.LocalSpace()
	if sp.Count() != 1 { // space-info tuple only
		t.Fatalf("a count = %d", sp.Count())
	}
}
