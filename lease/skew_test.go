package lease

import (
	"testing"
	"time"
)

// Clock-skew guard band (Capacity.SkewBand, T-Lease-style): expiry is
// enforced SkewBand after the nominal deadline, so a reconnecting peer's
// marginally-stale grant is not rejected as expired at the boundary.

func skewCap(band time.Duration) Capacity {
	c := DefaultCapacity()
	c.SkewBand = band
	return c
}

func TestSkewBandDelaysExpiryEnforcement(t *testing.T) {
	const band = 200 * time.Millisecond
	m, clk := newTestManager(skewCap(band))
	l, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	// Deadline still reports the nominal promise.
	if !l.Deadline().Equal(epoch.Add(time.Second)) {
		t.Fatalf("deadline = %v", l.Deadline())
	}
	// At the nominal deadline, and through the whole band, the lease is
	// still honoured: a peer whose clock runs up to band fast sees its
	// grant survive the boundary.
	clk.Advance(time.Second)
	if l.State() != StateActive {
		t.Fatalf("state at nominal deadline = %v, want active", l.State())
	}
	clk.Advance(band - time.Millisecond)
	if l.State() != StateActive {
		t.Fatalf("state just inside the band = %v, want active", l.State())
	}
	// One tick past deadline+band: enforcement fires.
	clk.Advance(time.Millisecond)
	if l.State() != StateExpired {
		t.Fatalf("state past the band = %v, want expired", l.State())
	}
}

func TestZeroSkewBandEnforcesAtDeadline(t *testing.T) {
	m, clk := newTestManager(skewCap(0))
	l, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second - time.Millisecond)
	if l.State() != StateActive {
		t.Fatalf("state before deadline = %v, want active", l.State())
	}
	clk.Advance(time.Millisecond)
	if l.State() != StateExpired {
		t.Fatalf("state at deadline = %v, want expired", l.State())
	}
}

func TestSkewBandDoesNotExtendThePromise(t *testing.T) {
	// The band is leniency on enforcement, not extra budget: the nominal
	// deadline (what TTLs and serve budgets derive from) is unchanged, so
	// budgets computed from Deadline() shrink to zero at the promise.
	const band = 500 * time.Millisecond
	m, clk := newTestManager(skewCap(band))
	l, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if rem := l.Deadline().Sub(clk.Now()); rem > 0 {
		t.Fatalf("promise has %v remaining at nominal expiry", rem)
	}
	if l.State() != StateActive {
		t.Fatalf("state = %v inside band, want active", l.State())
	}
}
