package lease

import (
	"testing"
	"time"

	"tiamat/clock"
)

// endProbe counts its calls and checks, on each, that neither the lease
// nor its manager is locked: a hook that ends a served wait goes on to
// cancel the lease and read the manager.
type endProbe struct {
	t     *testing.T
	l     *Lease
	calls int
}

func (p *endProbe) LeaseEnded() {
	p.calls++
	if p.l.State() == StateActive {
		p.t.Error("hook ran on an active lease")
	}
	p.l.Cancel()
	p.l.mgr.Stats()
}

// TestEndHookFiresOnceOnEveryEnd: expiry, cancel and revocation each run
// the armed hook exactly once, on the goroutine that ended the lease and
// outside its locks; a lease that has already ended runs it inside OnEnd;
// and whatever ends the lease a second time runs nothing.
func TestEndHookFiresOnceOnEveryEnd(t *testing.T) {
	ends := []struct {
		name string
		end  func(m *Manager, clk *clock.Virtual, l *Lease)
		want State
	}{
		{"expiry", func(_ *Manager, clk *clock.Virtual, _ *Lease) { clk.Advance(time.Second) }, StateExpired},
		{"shrunk expiry", func(_ *Manager, clk *clock.Virtual, l *Lease) {
			l.ShrinkDuration(time.Millisecond)
			clk.Advance(time.Millisecond)
		}, StateExpired},
		{"cancel", func(_ *Manager, _ *clock.Virtual, l *Lease) { l.Cancel() }, StateCancelled},
		{"revoke", func(m *Manager, _ *clock.Virtual, _ *Lease) { m.Revoke(1) }, StateRevoked},
		{"manager close", func(m *Manager, _ *clock.Virtual, _ *Lease) { m.Close() }, StateCancelled},
	}
	for _, e := range ends {
		e := e
		t.Run(e.name, func(t *testing.T) {
			m, clk := newTestManager(DefaultCapacity())
			l, err := m.GrantTerms(OpIn, Terms{Duration: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			p := &endProbe{t: t, l: l}
			l.OnEnd(p)
			if p.calls != 0 {
				t.Fatal("hook ran when it was armed on an active lease")
			}
			e.end(m, clk, l)
			if p.calls != 1 || l.State() != e.want {
				t.Fatalf("hook ran %d times, lease %v; want once, %v", p.calls, l.State(), e.want)
			}
			l.Cancel()
			m.Revoke(1)
			clk.Advance(time.Hour)
			if p.calls != 1 {
				t.Fatalf("hook ran %d times in all", p.calls)
			}
			late := &endProbe{t: t, l: l}
			l.OnEnd(late)
			if late.calls != 1 {
				t.Fatalf("hook armed on a finished lease ran %d times, want once, at once", late.calls)
			}
		})
	}
}

type noopHook struct{}

func (noopHook) LeaseEnded() {}

// TestEndHookAllocatesNothing: a served wait arms a hook on every serve
// lease, so arming must cost no object beyond the lease's own.
func TestEndHookAllocatesNothing(t *testing.T) {
	m := NewManager(DefaultCapacity(), nil)
	defer m.Close()
	hook := &noopHook{}
	cycle := func() {
		l, err := m.GrantTerms(OpIn, Terms{Duration: 30 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		l.OnEnd(hook)
		l.Cancel()
	}
	cycle() // arm the queue's timer once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 1 {
		t.Fatalf("GrantTerms+OnEnd+Cancel: %v allocs, want 1 (the lease)", allocs)
	}
}

// TestEndHookIntoAllocatesNothing is TestEndHookAllocatesNothing for a
// lease granted into its holder, as a served wait carries its own: 0.
func TestEndHookIntoAllocatesNothing(t *testing.T) {
	m := NewManager(DefaultCapacity(), nil)
	defer m.Close()
	hook := &noopHook{}
	ls := make([]Lease, 1002) // each granted into once
	k := 0
	cycle := func() {
		l := &ls[k]
		k++
		if err := m.GrantInto(l, OpIn, Terms{Duration: 30 * time.Minute}); err != nil {
			t.Fatal(err)
		}
		l.OnEnd(hook)
		l.Cancel()
	}
	cycle() // arm the queue's timer once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("GrantInto+OnEnd+Cancel: %v allocs, want 0", allocs)
	}
}
