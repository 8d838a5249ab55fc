// Differential tests: the naive reference space and the optimised store
// must agree on observable behaviour under random operation sequences,
// and a Tiamat instance must run unchanged on either (paper §3.1.2).
package naive

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tiamat/clock"
	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/space/persist"
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
	w := spacetest.Wait(s, tmpl("a"), space.Take)
	s.Out(item("a", 1), time.Time{})
	if got := <-w.C; !got.Equal(item("a", 1)) {
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

// TestRemovalReport: every space — the oracle, the store and the durable
// wrapper — reports each final removal once, by the id Out returned: a
// take, an accepted hold, a taking waiter, Remove, a parked in consuming
// a released hold's tuple, and one taking an Out on its way in. Nothing
// else is reported: a read and a release.
func TestRemovalReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) space.Space
	}{
		{"naive", func(*testing.T) space.Space { return New(nil) }},
		{"store", func(*testing.T) space.Space { return store.New() }},
		{"persist", func(t *testing.T) space.Space {
			sp, err := persist.Open(filepath.Join(t.TempDir(), "r.log"), store.New(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return sp
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			defer s.Close()
			var mu sync.Mutex
			var reported, want []uint64
			s.OnRemove(func(e space.Entry) {
				mu.Lock()
				defer mu.Unlock()
				if e.Size != item("a", 0).Size() || !e.Expiry.IsZero() {
					t.Errorf("removal of %d reported size %d, expiry %v", e.ID, e.Size, e.Expiry)
				}
				reported = append(reported, e.ID)
			})
			expect := func(what string, ids ...uint64) {
				t.Helper()
				want = append(want, ids...)
				mu.Lock()
				defer mu.Unlock()
				if fmt.Sprint(reported) != fmt.Sprint(want) {
					t.Fatalf("after %s: reported %v, want %v", what, reported, want)
				}
			}
			ids := make([]uint64, 5)
			for k := range ids {
				ids[k], _ = s.Out(item("a", int64(k)), time.Time{})
			}
			exact := func(k int) tuple.Template { return tuple.TemplateOf(item("a", int64(k))) }
			s.Rdp(exact(0))
			h, _ := s.Hold(exact(0))
			h.Release()
			expect("a read and a released hold")
			s.Inp(exact(0))
			expect("a take", ids[0])
			h, _ = s.Hold(exact(1))
			h.Accept()
			expect("an accepted hold", ids[1])
			<-spacetest.Wait(s, exact(2), space.Take).C
			expect("a taking waiter", ids[2])
			s.Remove(ids[3])
			expect("Remove", ids[3])
			h, _ = s.Hold(exact(4))
			in := spacetest.Wait(s, exact(4), space.Take)
			h.Release()
			<-in.C
			expect("a released hold's tuple taken on its way back", ids[4])
			in = spacetest.Wait(s, tmpl("a"), space.Take)
			id, _ := s.Out(item("a", 5), time.Time{})
			<-in.C
			expect("an Out taken on its way in", id)
		})
	}
}

// TestSpaceLeases: every space counts and sums its entries with an
// expiry (the out leases the instance reserves when it starts over a
// replayed log) and names the one expiring soonest (the victim of a
// revocation). A held entry and one that never expires are neither.
func TestSpaceLeases(t *testing.T) {
	at := time.Now().Add(time.Hour)
	for _, tc := range []struct {
		name string
		open func(t *testing.T) space.Space
	}{
		{"naive", func(*testing.T) space.Space { return New(nil) }},
		{"store", func(*testing.T) space.Space { return store.New() }},
		{"persist", func(t *testing.T) space.Space {
			sp, err := persist.Open(filepath.Join(t.TempDir(), "s.log"), store.New(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return sp
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			defer s.Close()
			if n, _, _, ok := s.Leases(); n != 0 || ok {
				t.Fatal("an empty space reported leases")
			}
			ids := make([]uint64, 4)
			for k, d := range []time.Duration{3, 1, 2} {
				ids[k], _ = s.Out(item("a", int64(k)), at.Add(d*time.Second))
			}
			ids[3], _ = s.Out(item("b", 0), time.Time{})
			size := item("a", 0).Size()
			want := func(what string, id uint64, n int) {
				t.Helper()
				got, bytes, e, ok := s.Leases()
				if !ok || e.ID != id || e.Size != size {
					t.Fatalf("%s: soonest %+v %v, want id %d", what, e, ok, id)
				}
				if got != n || bytes != int64(n)*size {
					t.Fatalf("%s: %d leases of %d B; want %d of %d B", what, got, bytes, n, int64(n)*size)
				}
			}
			want("three leased", ids[1], 3)
			h, ok := s.Hold(tuple.TemplateOf(item("a", 1)))
			if !ok {
				t.Fatal("hold failed")
			}
			want("the soonest held", ids[2], 2)
			h.Release()
			want("released", ids[1], 3)
			s.Remove(ids[1])
			want("the soonest removed", ids[2], 2)
		})
	}
}

func TestNaiveExpiry(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	s := New(clk)
	defer s.Close()
	var reported []uint64
	s.OnRemove(func(e space.Entry) { reported = append(reported, e.ID) })
	id, _ := s.Out(item("a", 1), epoch.Add(time.Second))
	clk.Advance(2 * time.Second)
	if _, ok := s.Rdp(tmpl("a")); ok {
		t.Fatal("expired tuple visible")
	}
	if s.Count() != 0 {
		t.Fatal("expired tuple counted")
	}
	// The purge that drops an expired tuple reports it, once.
	s.Out(item("b", 1), time.Time{})
	if len(reported) != 1 || reported[0] != id {
		t.Fatalf("reported %v, want [%d]", reported, id)
	}
}

func TestNaiveRemoveAndClose(t *testing.T) {
	s := New(nil)
	id, _ := s.Out(item("a", 1), time.Time{})
	if _, ok := s.Remove(id); !ok {
		t.Fatal("Remove missed the tuple")
	}
	if _, ok := s.Remove(id); ok {
		t.Fatal("Remove semantics wrong")
	}
	w := spacetest.Wait(s, tmpl("a"), space.Read)
	s.Close()
	s.Close()
	if _, err := s.Out(item("a", 2), time.Time{}); err == nil {
		t.Fatal("out on closed space")
	}
	w2 := spacetest.Wait(s, tmpl("a"), space.Read)
	// Close calls no sink: both registrations end undelivered.
	for _, w := range []*spacetest.Chan{w, w2} {
		if len(w.C) != 0 || !w.Cancel() {
			t.Fatal("waiter served across close")
		}
	}
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
