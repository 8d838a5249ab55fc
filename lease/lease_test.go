package lease

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tiamat/clock"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func newTestManager(cap Capacity) (*Manager, *clock.Virtual) {
	clk := clock.NewVirtual(epoch)
	return NewManager(cap, clk), clk
}

func TestGrantClampsToCapacity(t *testing.T) {
	cap := Capacity{MaxActive: 4, MaxDuration: 10 * time.Second, MaxRemotes: 3, MaxBytes: 100, MaxTotalBytes: 1000}
	m, _ := newTestManager(cap)
	l, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Hour, MaxRemotes: 50, MaxBytes: 5000}))
	if err != nil {
		t.Fatal(err)
	}
	got := l.Terms()
	want := Terms{Duration: 10 * time.Second, MaxRemotes: 3, MaxBytes: 100}
	if got != want {
		t.Fatalf("granted %v, want %v", got, want)
	}
	if !l.Deadline().Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("deadline = %v", l.Deadline())
	}
}

func TestGrantReadOpsHoldNoBytes(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	for _, op := range []OpKind{OpRd, OpRdp, OpIn, OpInp} {
		l, err := m.Grant(op, Flexible(Terms{Duration: time.Second, MaxBytes: 500}))
		if err != nil {
			t.Fatal(err)
		}
		if l.Terms().MaxBytes != 0 {
			t.Errorf("%s granted MaxBytes %d, want 0", op, l.Terms().MaxBytes)
		}
	}
	if s := m.Stats(); s.BytesHeld != 0 {
		t.Fatalf("BytesHeld = %d, want 0", s.BytesHeld)
	}
}

func TestRequesterRefusalFailsOperation(t *testing.T) {
	cap := DefaultCapacity()
	cap.MaxDuration = time.Second
	m, _ := newTestManager(cap)
	_, err := m.Grant(OpRd, Exactly(Terms{Duration: time.Minute}))
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if s := m.Stats(); s.Refused != 1 || s.Granted != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAtLeastAcceptsPartialOffer(t *testing.T) {
	cap := DefaultCapacity()
	cap.MaxDuration = 10 * time.Second
	m, _ := newTestManager(cap)
	r := AtLeast(Terms{Duration: 5 * time.Second}, Terms{Duration: time.Minute})
	l, err := m.Grant(OpRd, r)
	if err != nil {
		t.Fatal(err)
	}
	if l.Terms().Duration != 10*time.Second {
		t.Fatalf("granted %v", l.Terms())
	}
}

func TestMaxActiveRefusal(t *testing.T) {
	cap := DefaultCapacity()
	cap.MaxActive = 2
	m, _ := newTestManager(cap)
	a, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second})); !errors.Is(err, ErrRefused) {
		t.Fatalf("third grant err = %v, want ErrRefused", err)
	}
	a.Cancel()
	if _, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second})); err != nil {
		t.Fatalf("grant after cancel: %v", err)
	}
}

func TestExpiry(t *testing.T) {
	m, clk := newTestManager(DefaultCapacity())
	l, err := m.Grant(OpOut, Flexible(Terms{Duration: 5 * time.Second, MaxBytes: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if l.Err() != nil {
		t.Fatalf("fresh lease Err = %v", l.Err())
	}
	ended := &endProbe{t: t, l: l}
	l.OnEnd(ended)
	clk.Advance(4 * time.Second)
	if l.State() != StateActive || ended.calls != 0 {
		t.Fatal("expired early")
	}
	clk.Advance(time.Second)
	if l.State() != StateExpired {
		t.Fatalf("state = %v, want expired", l.State())
	}
	if !errors.Is(l.Err(), ErrExpired) {
		t.Fatalf("Err = %v", l.Err())
	}
	if ended.calls != 1 {
		t.Fatalf("end hook ran %d times on expiry, want once", ended.calls)
	}
	if err := l.ConsumeBytes(1); !errors.Is(err, ErrExpired) {
		t.Fatalf("ConsumeBytes after expiry: %v", err)
	}
	if s := m.Stats(); s.Expired != 1 || s.Active != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// A cancel unlinks the lease from the manager's deadline queue and leaves
// the queue's one clock timer alone (clock.Queue: it fires, finds nothing
// due and is not re-armed). So the timer contract is no longer "a cancel
// disarms" but: at most one pending timer per manager, none once the clock
// has passed the armed instant, none after Close.
func TestCancelIdempotentAndStopsTimer(t *testing.T) {
	m, clk := newTestManager(DefaultCapacity())
	l, err := m.Grant(OpRd, Flexible(Terms{Duration: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	l.Cancel()
	l.Cancel()
	if l.State() != StateCancelled {
		t.Fatalf("state = %v", l.State())
	}
	if n := m.expiries.Len(); n != 0 {
		t.Fatalf("cancelled lease left %d queue entries", n)
	}
	if clk.Pending() > 1 {
		t.Fatalf("%d timers pending, want at most one per manager", clk.Pending())
	}
	clk.Advance(10 * time.Second)
	if l.State() != StateCancelled {
		t.Fatal("expiry overrode cancellation")
	}
	if s := m.Stats(); s.Cancelled != 1 || s.Expired != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if clk.Pending() != 0 {
		t.Fatalf("timer leaked past its armed instant: %d pending", clk.Pending())
	}
	if _, err := m.Grant(OpRd, Flexible(Terms{Duration: 5 * time.Second})); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if clk.Pending() != 0 {
		t.Fatalf("timer leaked past Close: %d pending", clk.Pending())
	}
}

// TestGrantCancelAllocatesOnlyTheLease pins the serve path's lease cost at
// one object per grant: the lease carries its own queue entry, so linking
// and unlinking it allocate nothing and no timer is armed or stopped.
func TestGrantCancelAllocatesOnlyTheLease(t *testing.T) {
	m := NewManager(DefaultCapacity(), nil)
	defer m.Close()
	cycle := func() {
		l, err := m.GrantTerms(OpIn, Terms{Duration: 30 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		l.Cancel()
	}
	cycle() // arm the queue's timer once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 1 {
		t.Fatalf("GrantTerms+Cancel: %v allocs, want 1 (the lease)", allocs)
	}
}

// TestGrantIntoCancelAllocatesNothing is the caller-owned twin of
// TestGrantCancelAllocatesOnlyTheLease: a lease granted into a holder's
// field costs no object at all.
func TestGrantIntoCancelAllocatesNothing(t *testing.T) {
	m := NewManager(DefaultCapacity(), nil)
	defer m.Close()
	ls := make([]Lease, 1002) // each granted into once, as GrantInto asks
	k := 0
	cycle := func() {
		l := &ls[k]
		k++
		if err := m.GrantInto(l, OpIn, Terms{Duration: 30 * time.Minute}); err != nil {
			t.Fatal(err)
		}
		l.Cancel()
	}
	cycle() // arm the queue's timer once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("GrantInto+Cancel: %v allocs, want 0", allocs)
	}
	if s := m.Stats(); s.Granted != 1002 || s.Cancelled != 1002 || s.Active != 0 {
		t.Fatalf("stats %+v, want 1002 granted and cancelled, none active", s)
	}
}

// countingClock is a virtual clock that counts its readings.
type countingClock struct {
	*clock.Virtual
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Virtual.Now()
}

// TestAdmitMintsNothing: Admit gives GrantTerms's verdict — refused when
// the manager is full or closed, a refusal counted as GrantTerms counts
// it — without a lease or a clock reading, and admitting makes no object.
func TestAdmitMintsNothing(t *testing.T) {
	clk := &countingClock{Virtual: clock.NewVirtual(epoch)}
	cap := DefaultCapacity()
	cap.MaxActive = 1
	m := NewManager(cap, clk)
	want := Terms{Duration: time.Second}
	reads := clk.reads
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := m.Admit(OpInp, want); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Admit: %v allocs, want 0", allocs)
	}
	if clk.reads != reads {
		t.Fatalf("Admit read the clock %d times", clk.reads-reads)
	}
	if s := m.Stats(); s.Granted != 0 || s.Active != 0 || s.Refused != 0 {
		t.Fatalf("after admitting: %+v, want nothing granted or refused", s)
	}

	held, err := m.GrantTerms(OpIn, want)
	if err != nil {
		t.Fatal(err)
	}
	reads = clk.reads
	if err := m.Admit(OpInp, want); !errors.Is(err, ErrRefused) {
		t.Fatalf("Admit at MaxActive: %v, want ErrRefused", err)
	}
	if _, err := m.GrantTerms(OpInp, want); !errors.Is(err, ErrRefused) {
		t.Fatalf("GrantTerms at MaxActive: %v, want ErrRefused", err)
	}
	if s := m.Stats(); s.Refused != 2 || s.Granted != 1 {
		t.Fatalf("at MaxActive: %+v, want 2 refused (Admit's and GrantTerms's), 1 granted", s)
	}
	if clk.reads != reads {
		t.Fatalf("refusing Admit read the clock %d times", clk.reads-reads)
	}

	held.Cancel()
	m.Close()
	refused := m.Stats().Refused
	if err := m.Admit(OpInp, want); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close: %v, want ErrClosed", err)
	}
	if _, err := m.GrantTerms(OpInp, want); !errors.Is(err, ErrClosed) {
		t.Fatalf("GrantTerms after Close: %v, want ErrClosed", err)
	}
	if n := m.Stats().Refused; n != refused {
		t.Fatalf("closed: Refused moved %d → %d; a closed manager refuses uncounted, as GrantTerms does", refused, n)
	}
}

func TestRemoteBudget(t *testing.T) {
	cap := DefaultCapacity()
	m, _ := newTestManager(cap)
	l, err := m.Grant(OpIn, Flexible(Terms{Duration: time.Second, MaxRemotes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ConsumeRemote(); err != nil {
		t.Fatal(err)
	}
	if err := l.ConsumeRemote(); err != nil {
		t.Fatal(err)
	}
	if l.RemotesLeft() != 0 {
		t.Fatalf("RemotesLeft = %d", l.RemotesLeft())
	}
	if err := l.ConsumeRemote(); !errors.Is(err, ErrBudget) {
		t.Fatalf("third ConsumeRemote: %v", err)
	}
}

func TestByteBudget(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	l, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ConsumeBytes(60); err != nil {
		t.Fatal(err)
	}
	if err := l.ConsumeBytes(50); !errors.Is(err, ErrBudget) {
		t.Fatalf("overdraft: %v", err)
	}
	if err := l.ConsumeBytes(40); err != nil {
		t.Fatalf("within budget after failed overdraft: %v", err)
	}
	if l.BytesUsed() != 100 {
		t.Fatalf("BytesUsed = %d", l.BytesUsed())
	}
	if err := l.ConsumeBytes(-1); err == nil {
		t.Fatal("negative ConsumeBytes succeeded")
	}
}

func TestTotalBytesPoolShrinksOffers(t *testing.T) {
	cap := Capacity{MaxActive: 100, MaxDuration: time.Minute, MaxRemotes: 1, MaxBytes: 600, MaxTotalBytes: 1000}
	m, _ := newTestManager(cap)
	a, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 600}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Terms().MaxBytes != 600 {
		t.Fatalf("first grant bytes = %d", a.Terms().MaxBytes)
	}
	b, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 600}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Terms().MaxBytes != 400 {
		t.Fatalf("second grant bytes = %d, want clamped 400", b.Terms().MaxBytes)
	}
	if _, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 10})); !errors.Is(err, ErrRefused) {
		t.Fatalf("pool exhausted grant: %v", err)
	}
	a.Cancel()
	if s := m.Stats(); s.BytesHeld != 400 {
		t.Fatalf("BytesHeld after cancel = %d", s.BytesHeld)
	}
}

func TestRevokeOldestFirstAndObserver(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	var revoked []uint64
	m.OnRevoke(func(l *Lease) { revoked = append(revoked, l.ID()) })
	a, _ := m.Grant(OpOut, Flexible(Terms{Duration: 1 * time.Second, MaxBytes: 1}))
	b, _ := m.Grant(OpOut, Flexible(Terms{Duration: 2 * time.Second, MaxBytes: 1}))
	c, _ := m.Grant(OpOut, Flexible(Terms{Duration: 3 * time.Second, MaxBytes: 1}))
	if n := m.Revoke(2); n != 2 {
		t.Fatalf("Revoke = %d", n)
	}
	if len(revoked) != 2 || revoked[0] != a.ID() || revoked[1] != b.ID() {
		t.Fatalf("revoked %v, want [%d %d]", revoked, a.ID(), b.ID())
	}
	if !errors.Is(a.Err(), ErrRevoked) || !errors.Is(b.Err(), ErrRevoked) {
		t.Fatal("revoked leases missing ErrRevoked")
	}
	if c.State() != StateActive {
		t.Fatal("c should survive")
	}
	if m.Revoke(0) != 0 {
		t.Fatal("Revoke(0) should revoke nothing")
	}
	if s := m.Stats(); s.Revoked != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOfferDoesNotGrant(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	o := m.Offer(OpOut, Terms{Duration: time.Second, MaxBytes: 10})
	if o.Duration != time.Second {
		t.Fatalf("offer = %v", o)
	}
	if s := m.Stats(); s.Active != 0 || s.Granted != 0 {
		t.Fatalf("Offer changed state: %+v", s)
	}
}

func TestCloseCancelsAndRefuses(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	l, _ := m.Grant(OpRd, Flexible(Terms{Duration: time.Minute}))
	m.Close()
	m.Close() // idempotent
	if l.State() != StateCancelled {
		t.Fatalf("state after Close = %v", l.State())
	}
	if _, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Second})); !errors.Is(err, ErrClosed) {
		t.Fatalf("grant after close: %v", err)
	}
	if _, err := m.Acquire(ResThreads, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
}

func TestResourceFactories(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	if _, err := m.Acquire(ResThreads, 1); !errors.Is(err, ErrUnknownResource) {
		t.Fatalf("unregistered kind: %v", err)
	}
	m.RegisterResource(ResThreads, 2)
	rel1, err := m.Acquire(ResThreads, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := m.Acquire(ResThreads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(ResThreads, 1); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("over capacity: %v", err)
	}
	rel1()
	rel1() // idempotent
	if used, cap := m.InUse(ResThreads); used != 1 || cap != 2 {
		t.Fatalf("InUse = %d/%d", used, cap)
	}
	rel2()
	if used, _ := m.InUse(ResThreads); used != 0 {
		t.Fatalf("used = %d after release", used)
	}
	if _, err := m.Acquire(ResThreads, 0); err == nil {
		t.Fatal("Acquire(0) succeeded")
	}
	if used, cap := m.InUse("nope"); used != 0 || cap != 0 {
		t.Fatal("unknown kind InUse should be 0/0")
	}
}

func TestConcurrentGrantCancel(t *testing.T) {
	m, clk := newTestManager(DefaultCapacity())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 8}))
				if err != nil {
					continue
				}
				_ = l.ConsumeBytes(4)
				l.Cancel()
			}
		}()
	}
	wg.Wait()
	clk.Advance(time.Hour)
	s := m.Stats()
	if s.Active != 0 || s.BytesHeld != 0 {
		t.Fatalf("leaked: %+v", s)
	}
	if s.Granted != s.Cancelled+s.Expired {
		t.Fatalf("accounting mismatch: %+v", s)
	}
}

func TestOpKindHelpers(t *testing.T) {
	if !OpIn.Blocking() || !OpRd.Blocking() || OpInp.Blocking() || OpRdp.Blocking() || OpOut.Blocking() {
		t.Error("Blocking misclassified")
	}
	if !OpIn.Removes() || !OpInp.Removes() || OpRd.Removes() || OpRdp.Removes() {
		t.Error("Removes misclassified")
	}
	names := map[OpKind]string{OpOut: "out", OpEval: "eval", OpRd: "rd", OpRdp: "rdp", OpIn: "in", OpInp: "inp"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s", k, k.String())
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown OpKind should still render")
	}
}

func TestTermsCoversAndString(t *testing.T) {
	a := Terms{Duration: 2 * time.Second, MaxRemotes: 2, MaxBytes: 2}
	b := Terms{Duration: time.Second, MaxRemotes: 1, MaxBytes: 1}
	if !a.Covers(b) || b.Covers(a) {
		t.Error("Covers wrong")
	}
	if a.String() == "" || StateActive.String() != "active" || StateRevoked.String() != "revoked" ||
		StateExpired.String() != "expired" || StateCancelled.String() != "cancelled" || State(9).String() != "unknown" {
		t.Error("String rendering wrong")
	}
}

func TestShrinkBytesReturnsPool(t *testing.T) {
	cap := Capacity{MaxActive: 10, MaxDuration: time.Minute, MaxRemotes: 1, MaxBytes: 500, MaxTotalBytes: 1000}
	m, _ := newTestManager(cap)
	a, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 500}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ConsumeBytes(50); err != nil {
		t.Fatal(err)
	}
	a.ShrinkBytes()
	a.ShrinkBytes() // idempotent
	if s := m.Stats(); s.BytesHeld != 50 {
		t.Fatalf("BytesHeld = %d, want 50", s.BytesHeld)
	}
	// The freed budget is immediately grantable again.
	b, err := m.Grant(OpOut, Flexible(Terms{Duration: time.Second, MaxBytes: 500}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Terms().MaxBytes != 500 {
		t.Fatalf("second grant bytes = %d", b.Terms().MaxBytes)
	}
	// Shrunk lease cannot consume beyond its new budget.
	if err := a.ConsumeBytes(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("consume after shrink: %v", err)
	}
	// Releasing the shrunk lease returns only the shrunk amount.
	a.Cancel()
	b.Cancel()
	if s := m.Stats(); s.BytesHeld != 0 {
		t.Fatalf("BytesHeld after cancels = %d", s.BytesHeld)
	}
	// ShrinkBytes on a finished lease is a no-op.
	a.ShrinkBytes()
	if s := m.Stats(); s.BytesHeld != 0 {
		t.Fatalf("BytesHeld after post-cancel shrink = %d", s.BytesHeld)
	}
}

func TestSetCapacityAffectsFutureGrants(t *testing.T) {
	m, _ := newTestManager(DefaultCapacity())
	before, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	small := ConstrainedCapacity()
	m.SetCapacity(small)
	if got := m.Capacity(); got != small {
		t.Fatalf("Capacity = %+v", got)
	}
	after, err := m.Grant(OpRd, Flexible(Terms{Duration: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	if after.Terms().Duration != small.MaxDuration {
		t.Fatalf("new grant duration = %v", after.Terms().Duration)
	}
	// Existing leases keep their original terms (§5.3: adaptation is
	// forward-looking).
	if before.Terms().Duration != time.Hour {
		t.Fatalf("existing lease re-clamped: %v", before.Terms())
	}
}
