package monitor

import (
	"testing"
	"testing/quick"
	"time"

	"tiamat/wire"
)

func addrs(names ...string) []wire.Addr {
	out := make([]wire.Addr, len(names))
	for i, n := range names {
		out[i] = wire.Addr(n)
	}
	return out
}

func TestStabilityStableSet(t *testing.T) {
	m := New(8)
	for i := 0; i < 8; i++ {
		m.ObserveVisible(time.Time{}, addrs("a", "b", "c"))
	}
	if got := m.Stability(); got != 1.0 {
		t.Fatalf("Stability = %g, want 1.0", got)
	}
	if m.Churn() != 0 {
		t.Fatalf("Churn = %g", m.Churn())
	}
}

func TestStabilityTotalChurn(t *testing.T) {
	m := New(8)
	m.ObserveVisible(time.Time{}, addrs("a", "b"))
	m.ObserveVisible(time.Time{}, addrs("c", "d"))
	if got := m.Stability(); got != 0 {
		t.Fatalf("Stability = %g, want 0", got)
	}
}

func TestStabilityPartialOverlap(t *testing.T) {
	m := New(8)
	m.ObserveVisible(time.Time{}, addrs("a", "b"))
	m.ObserveVisible(time.Time{}, addrs("b", "c"))
	// Jaccard({a,b},{b,c}) = 1/3.
	if got := m.Stability(); got < 0.33 || got > 0.34 {
		t.Fatalf("Stability = %g, want ~1/3", got)
	}
}

func TestStabilityDefaultsWithFewSamples(t *testing.T) {
	m := New(8)
	if m.Stability() != 1.0 {
		t.Fatal("no samples should read stable")
	}
	m.ObserveVisible(time.Time{}, addrs("a"))
	if m.Stability() != 1.0 {
		t.Fatal("single sample should read stable")
	}
}

func TestStabilityEmptySets(t *testing.T) {
	m := New(8)
	m.ObserveVisible(time.Time{}, nil)
	m.ObserveVisible(time.Time{}, nil)
	if m.Stability() != 1.0 {
		t.Fatal("two empty sets are identical")
	}
}

func TestWindowSlides(t *testing.T) {
	m := New(2)
	m.ObserveVisible(time.Time{}, addrs("a"))
	m.ObserveVisible(time.Time{}, addrs("z")) // churn vs previous
	m.ObserveVisible(time.Time{}, addrs("z"))
	m.ObserveVisible(time.Time{}, addrs("z"))
	// Window of 2 retains only the stable tail.
	if got := m.Stability(); got != 1.0 {
		t.Fatalf("Stability = %g after window slid", got)
	}
}

func TestPersistenceRanking(t *testing.T) {
	m := New(4)
	m.ObserveVisible(time.Time{}, addrs("stable", "flaky"))
	m.ObserveVisible(time.Time{}, addrs("stable"))
	m.ObserveVisible(time.Time{}, addrs("stable"))
	m.ObserveVisible(time.Time{}, addrs("stable", "flaky"))
	ps := m.Persistence()
	if len(ps) != 2 {
		t.Fatalf("persistence = %v", ps)
	}
	if ps[0].Addr != "stable" || ps[0].Score != 1.0 {
		t.Fatalf("top = %+v", ps[0])
	}
	if ps[1].Addr != "flaky" || ps[1].Score != 0.5 {
		t.Fatalf("second = %+v", ps[1])
	}
	if New(4).Persistence() != nil {
		t.Fatal("empty monitor should return nil persistence")
	}
}

func TestAdaptiveIntervalBacksOffWhenStable(t *testing.T) {
	a := NewAdaptiveInterval(100*time.Millisecond, time.Second)
	if a.Current() != 100*time.Millisecond {
		t.Fatal("start != min")
	}
	a.Update(1.0)
	a.Update(1.0)
	if got := a.Current(); got != 400*time.Millisecond {
		t.Fatalf("interval = %v after two stable updates", got)
	}
	for i := 0; i < 10; i++ {
		a.Update(1.0)
	}
	if got := a.Current(); got != time.Second {
		t.Fatalf("interval = %v, want capped at max", got)
	}
}

func TestAdaptiveIntervalSnapsBackUnderChurn(t *testing.T) {
	a := NewAdaptiveInterval(100*time.Millisecond, time.Second)
	for i := 0; i < 5; i++ {
		a.Update(1.0)
	}
	if got := a.Update(0.1); got != 100*time.Millisecond {
		t.Fatalf("interval = %v under churn, want min", got)
	}
	// Mid-band stability leaves the interval unchanged.
	cur := a.Current()
	if got := a.Update(0.7); got != cur {
		t.Fatalf("mid-band update changed interval: %v", got)
	}
}

func TestAdaptiveIntervalDefaults(t *testing.T) {
	a := NewAdaptiveInterval(0, 0)
	if a.Current() <= 0 {
		t.Fatal("defaulted interval must be positive")
	}
}

func TestPropStabilityBounded(t *testing.T) {
	prop := func(samples [][]uint8) bool {
		m := New(8)
		for _, s := range samples {
			var visible []wire.Addr
			for _, v := range s {
				visible = append(visible, wire.Addr('a'+rune(v%8)))
			}
			m.ObserveVisible(time.Time{}, visible)
			st := m.Stability()
			if st < 0 || st > 1 {
				return false
			}
			if c := m.Churn(); c < 0 || c > 1 {
				return false
			}
		}
		for _, p := range m.Persistence() {
			if p.Score <= 0 || p.Score > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
