package lease

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Shrink is the re-negotiation rung of the escalation ladder: it must
// reclaim only promised-but-unconsumed budget, oldest deadline first,
// and never terminate a lease.

func TestManagerShrinkReclaimsOldestFirst(t *testing.T) {
	m, _ := newTestManager(Capacity{MaxActive: 8, MaxDuration: time.Minute, MaxRemotes: 4, MaxBytes: 100, MaxTotalBytes: 1000})
	a, _ := m.Grant(OpOut, Flexible(Terms{Duration: 1 * time.Second, MaxBytes: 100}))
	b, _ := m.Grant(OpOut, Flexible(Terms{Duration: 2 * time.Second, MaxBytes: 100}))
	c, _ := m.Grant(OpOut, Flexible(Terms{Duration: 3 * time.Second, MaxBytes: 100}))
	if err := a.ConsumeBytes(40); err != nil {
		t.Fatal(err)
	}
	if err := b.ConsumeBytes(10); err != nil {
		t.Fatal(err)
	}
	// a has 60 of slack, b 90, c 100. Asking for 100 should drain a fully
	// (oldest) and then b — c keeps its untouched promise.
	if got := m.Shrink(100); got != 150 {
		t.Fatalf("Shrink reclaimed %d, want 150 (60 from a + 90 from b)", got)
	}
	if tm := a.Terms(); tm.MaxBytes != 40 {
		t.Fatalf("a.MaxBytes = %d, want 40", tm.MaxBytes)
	}
	if tm := b.Terms(); tm.MaxBytes != 10 {
		t.Fatalf("b.MaxBytes = %d, want 10", tm.MaxBytes)
	}
	if tm := c.Terms(); tm.MaxBytes != 100 {
		t.Fatalf("c.MaxBytes = %d, want 100 (untouched)", tm.MaxBytes)
	}
	for _, l := range []*Lease{a, b, c} {
		if l.State() != StateActive {
			t.Fatal("shrink must never terminate a lease")
		}
	}
	if s := m.Stats(); s.BytesHeld != 150 {
		t.Fatalf("BytesHeld = %d, want 150", s.BytesHeld)
	}
	// Consumed budget stays spendable right up to the narrowed promise.
	if err := a.ConsumeBytes(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("a should be at its narrowed cap: %v", err)
	}
	if got := m.Shrink(0); got != 0 {
		t.Fatalf("Shrink(0) = %d", got)
	}
}

// The timer assertions follow clock.Queue's contract, not an eager disarm:
// at most one pending timer per manager (a shrink moves the lease's one
// entry and re-arms the timer because the head got earlier), none once the
// clock has passed the armed instant.
func TestShrinkDurationReArmsExpiry(t *testing.T) {
	m, clk := newTestManager(DefaultCapacity())
	l, err := m.Grant(OpRd, Flexible(Terms{Duration: 10 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if l.ShrinkDuration(20 * time.Second) {
		t.Fatal("lengthening must be a no-op")
	}
	if !l.ShrinkDuration(2 * time.Second) {
		t.Fatal("shrink to 2s should move the deadline")
	}
	if !l.Deadline().Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("deadline = %v", l.Deadline())
	}
	if m.expiries.Len() != 1 || clk.Pending() != 1 {
		t.Fatalf("%d queue entries, %d timers pending after a shrink, want 1 and 1", m.expiries.Len(), clk.Pending())
	}
	clk.Advance(1 * time.Second)
	if l.State() != StateActive {
		t.Fatal("expired before the shrunk deadline")
	}
	clk.Advance(1 * time.Second)
	if l.State() != StateExpired {
		t.Fatalf("state = %v, want expired at the shrunk deadline", l.State())
	}
	if l.ShrinkDuration(time.Second) {
		t.Fatal("shrinking a dead lease must be a no-op")
	}
	if clk.Pending() != 0 {
		t.Fatalf("timer leaked past its armed instant: %d pending", clk.Pending())
	}
}

func TestShrinkRemotesClamps(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	l, err := m.Grant(OpIn, Flexible(Terms{Duration: time.Second, MaxRemotes: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ConsumeRemote(); err != nil {
		t.Fatal(err)
	}
	if got := l.ShrinkRemotes(3); got != 6 {
		t.Fatalf("reclaimed %d contacts, want 6 (9 left clamped to 3)", got)
	}
	if got := l.RemotesLeft(); got != 3 {
		t.Fatalf("RemotesLeft = %d, want 3", got)
	}
	if got := l.ShrinkRemotes(5); got != 0 {
		t.Fatalf("raising the clamp reclaimed %d, want 0", got)
	}
	if got := l.ShrinkRemotes(-1); got != 3 {
		t.Fatalf("negative clamp reclaimed %d, want 3", got)
	}
	l.Cancel()
	if got := l.ShrinkRemotes(0); got != 0 {
		t.Fatal("shrinking a dead lease must reclaim nothing")
	}
}

// Concurrent shrink vs consume must preserve the budget invariants:
// consumption never exceeds the (possibly narrowed) promise, and the
// manager's byte pool exactly reflects the surviving promises.
func TestConcurrentShrinkVsConsume(t *testing.T) {
	const (
		leases   = 8
		perLease = 1000
	)
	m, _ := newTestManager(Capacity{
		MaxActive: leases, MaxDuration: time.Minute,
		MaxRemotes: 64, MaxBytes: perLease, MaxTotalBytes: leases * perLease,
	})
	ls := make([]*Lease, leases)
	for i := range ls {
		l, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Minute, MaxBytes: perLease, MaxRemotes: 64}))
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
	}
	var consumed [leases]int64
	var wg sync.WaitGroup
	for i, l := range ls {
		wg.Add(2)
		go func(i int, l *Lease) { // consumer
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if l.ConsumeBytes(3) == nil {
					atomic.AddInt64(&consumed[i], 3)
				}
				l.ConsumeRemote()
			}
		}(i, l)
		go func(l *Lease) { // shrinker
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.ShrinkBytes()
				l.ShrinkRemotes(10)
				l.ShrinkDuration(30 * time.Second)
			}
		}(l)
	}
	var mgrWG sync.WaitGroup
	mgrWG.Add(1)
	go func() { // manager-level shrink racing the per-lease paths
		defer mgrWG.Done()
		for j := 0; j < 50; j++ {
			m.Shrink(1 << 20)
		}
	}()
	wg.Wait()
	mgrWG.Wait()
	var wantHeld int64
	for i, l := range ls {
		tm := l.Terms()
		used := l.BytesUsed()
		if used != atomic.LoadInt64(&consumed[i]) {
			t.Fatalf("lease %d: BytesUsed %d != consumed %d", i, used, consumed[i])
		}
		if used > tm.MaxBytes {
			t.Fatalf("lease %d: consumed %d beyond promise %d", i, used, tm.MaxBytes)
		}
		if l.State() != StateActive {
			t.Fatalf("lease %d terminated by shrink", i)
		}
		wantHeld += tm.MaxBytes
	}
	if s := m.Stats(); s.BytesHeld != wantHeld {
		t.Fatalf("BytesHeld = %d, want %d (sum of surviving promises)", s.BytesHeld, wantHeld)
	}
}

// Revocation under pressure: oldest-first, interleaved with concurrent
// expiry, must never revoke more than asked and must fire OnRevoke
// exactly once per lease.
func TestRevokeOrderingUnderConcurrentExpiry(t *testing.T) {
	const total = 64
	m, clk := newTestManager(Capacity{MaxActive: total, MaxDuration: time.Hour, MaxRemotes: 4, MaxBytes: 10, MaxTotalBytes: total * 10})
	var fires sync.Map // lease ID -> *int64 observer fire count
	m.OnRevoke(func(l *Lease) {
		c, _ := fires.LoadOrStore(l.ID(), new(int64))
		atomic.AddInt64(c.(*int64), 1)
	})
	ls := make([]*Lease, total)
	for i := range ls {
		// Half the leases expire the instant the clock advances; the rest
		// live long enough to be revocation candidates.
		d := time.Hour
		if i%2 == 0 {
			d = time.Millisecond
		}
		l, err := m.Grant(OpOut, Flexible(Terms{Duration: d, MaxBytes: 1}))
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
	}
	const ask = 10
	var wg sync.WaitGroup
	wg.Add(2)
	revoked := make([]int, 4)
	go func() { // expiry storm
		defer wg.Done()
		clk.Advance(time.Millisecond)
	}()
	go func() { // concurrent revocation waves
		defer wg.Done()
		for i := range revoked {
			revoked[i] = m.Revoke(ask / 2)
		}
	}()
	wg.Wait()
	totalRevoked := 0
	for _, n := range revoked {
		if n > ask/2 {
			t.Fatalf("a wave revoked %d, asked %d", n, ask/2)
		}
		totalRevoked += n
	}
	var observerFires int64
	fires.Range(func(_, v any) bool {
		n := atomic.LoadInt64(v.(*int64))
		if n != 1 {
			t.Fatalf("OnRevoke fired %d times for one lease", n)
		}
		observerFires += n
		return true
	})
	if int(observerFires) != totalRevoked {
		t.Fatalf("observer fired %d times, Revoke reported %d", observerFires, totalRevoked)
	}
	// Every lease ended in exactly one terminal state, and the books agree.
	st := m.Stats()
	if int(st.Revoked) != totalRevoked {
		t.Fatalf("stats.Revoked = %d, want %d", st.Revoked, totalRevoked)
	}
	if st.Expired+st.Revoked+st.Cancelled != uint64(total-st.Active) {
		t.Fatalf("terminal states don't sum: %+v", st)
	}
	// Ordering: among still-active leases, none may predate a revoked one
	// (oldest-deadline-first means survivors are the youngest deadlines).
	// All short leases are gone (expired or revoked); survivors are
	// long-lived ones.
	for i, l := range ls {
		if i%2 == 0 && l.State() == StateActive {
			t.Fatalf("short lease %d survived the expiry storm", i)
		}
	}
}

// Revoke must not over-revoke when racing expiry of the same leases: a
// lease that expires between selection and finish does not count toward
// the revocation quota, and the observer never sees it.
func TestRevokeDoesNotCountConcurrentlyExpired(t *testing.T) {
	m, clk := newTestManager(DefaultCapacity())
	var observed int64
	m.OnRevoke(func(*Lease) { atomic.AddInt64(&observed, 1) })
	a, _ := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 1}))
	b, _ := m.Grant(OpOut, Flexible(Terms{Duration: time.Hour, MaxBytes: 1}))
	clk.Advance(time.Second) // a expires before Revoke runs
	if a.State() != StateExpired {
		t.Fatal("setup: a should be expired")
	}
	if n := m.Revoke(1); n != 1 {
		t.Fatalf("Revoke = %d, want 1 (skips the expired lease)", n)
	}
	if b.State() != StateRevoked {
		t.Fatal("b should have been revoked")
	}
	if observed != 1 {
		t.Fatalf("observer fired %d times, want 1", observed)
	}
}
