package lease

import (
	"errors"
	"testing"
	"time"

	"tiamat/clock"
)

// TestReserveHoldsNoLease: an out's reservation is one active slot and its
// bytes, counted as a grant, with no object, no deadline and no clock
// reading; MaxActive and the byte pool count it as a lease, and Unreserve
// gives both back.
func TestReserveHoldsNoLease(t *testing.T) {
	clk := &countingClock{Virtual: clock.NewVirtual(epoch)}
	cap := Capacity{MaxActive: 2, MaxDuration: time.Hour, MaxRemotes: 4, MaxBytes: 100, MaxTotalBytes: 150}
	m := NewManager(cap, clk)
	defer m.Close()
	offer, err := m.Negotiate(OpOut, Flexible(Terms{Duration: time.Minute, MaxBytes: 100}))
	if err != nil {
		t.Fatal(err)
	}
	reads := clk.reads
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.Reserve(offer, 60); err != nil {
			t.Fatal(err)
		}
		m.Unreserve(60)
	}); allocs != 0 {
		t.Fatalf("Reserve+Unreserve: %v allocs, want 0", allocs)
	}
	if clk.reads != reads || clk.Pending() != 0 {
		t.Fatalf("reserving read the clock %d times and left %d timers", clk.reads-reads, clk.Pending())
	}
	if err := m.Reserve(offer, 60); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Active != 1 || s.BytesHeld != 60 || len(m.ActiveLeases()) != 0 {
		t.Fatalf("one reservation: %+v with %d leases, want 1 active of 60 B and no lease", s, len(m.ActiveLeases()))
	}
	// The pool has 90 B left: an offer of 100 B is withdrawn, counted.
	before := m.Stats()
	if err := m.Reserve(offer, 10); !errors.Is(err, ErrRefused) {
		t.Fatalf("Reserve past the pool: %v, want ErrRefused", err)
	}
	if err := m.Reserve(Terms{Duration: time.Minute, MaxBytes: 50}, 51); !errors.Is(err, ErrBudget) {
		t.Fatalf("Reserve past the offer's bytes: %v, want ErrBudget", err)
	}
	if s := m.Stats(); s.Active != before.Active || s.BytesHeld != before.BytesHeld || s.Refused != before.Refused+1 {
		t.Fatalf("refused reservations: %+v → %+v, want one refusal and nothing held", before, s)
	}
	// A reservation fills a MaxActive slot as a lease does.
	if _, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Negotiate(OpRd, Flexible(Terms{Duration: time.Second})); !errors.Is(err, ErrRefused) {
		t.Fatalf("at MaxActive with one reservation and one lease: %v, want ErrRefused", err)
	}
	m.Unreserve(60)
	if s := m.Stats(); s.Active != 1 || s.BytesHeld != 0 || s.Granted != 103 || s.Cancelled != 102 {
		t.Fatalf("after Unreserve: %+v, want the one lease, 103 granted, 102 ended", s)
	}
	m.Close()
	if err := m.Reserve(offer, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve after Close: %v, want ErrClosed", err)
	}
}

// reservations is a holder of reservations for Revoke to reclaim, soonest
// deadline first.
type reservations struct {
	m    *Manager
	ends []time.Time // ascending
}

func (r *reservations) reclaim(by time.Time) bool {
	if len(r.ends) == 0 || (!by.IsZero() && r.ends[0].After(by)) {
		return false
	}
	r.ends = r.ends[1:]
	r.m.Unreserve(10)
	return true
}

// TestRevokeReachesReservationsSoonestFirst: Revoke takes leases and
// reservations in one deadline order, asking the holder for a reservation
// only when it ends no later than the soonest lease.
func TestRevokeReachesReservationsSoonestFirst(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	defer m.Close()
	r := &reservations{m: m}
	for _, d := range []time.Duration{time.Second, 3 * time.Second} {
		if err := m.Reserve(Terms{Duration: d, MaxBytes: 10}, 10); err != nil {
			t.Fatal(err)
		}
		r.ends = append(r.ends, epoch.Add(d))
	}
	m.OnReclaim(r.reclaim)
	l, err := m.Grant(OpRd, Flexible(Terms{Duration: 2 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Revoke(1); n != 1 || len(r.ends) != 1 || l.State() != StateActive {
		t.Fatalf("first revocation: %d, %d reservations left, lease %v; want the 1 s reservation", n, len(r.ends), l.State())
	}
	if n := m.Revoke(1); n != 1 || len(r.ends) != 1 || l.State() != StateRevoked {
		t.Fatalf("second revocation: %d, %d reservations left, lease %v; want the 2 s lease", n, len(r.ends), l.State())
	}
	if n := m.Revoke(5); n != 1 || len(r.ends) != 0 {
		t.Fatalf("last revocation: %d, %d reservations left; want the 3 s reservation and nothing more", n, len(r.ends))
	}
	if s := m.Stats(); s.Active != 0 || s.BytesHeld != 0 || s.Revoked != 3 {
		t.Fatalf("stats %+v, want nothing held and 3 revoked", s)
	}
}
