package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualNowAndAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	if !v.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), epoch)
	}
	v.Advance(3 * time.Second)
	if got := v.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("after Advance, Now = %v", got)
	}
	// Advancing to the past is a no-op.
	v.AdvanceTo(epoch)
	if got := v.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("AdvanceTo past moved clock back: %v", got)
	}
}

func TestVirtualAfterFuncFiresAtDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	var at time.Time
	v.AfterFunc(10*time.Second, func() { at = v.Now() })
	v.Advance(9 * time.Second)
	if !at.IsZero() {
		t.Fatal("timer fired early")
	}
	v.Advance(time.Second)
	if !at.Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("fired at %v, want its deadline", at)
	}
}

func TestVirtualAfterFuncZeroRunsInline(t *testing.T) {
	v := NewVirtual(epoch)
	ran := false
	v.AfterFunc(0, func() { ran = true })
	if !ran {
		t.Fatal("AfterFunc(0) did not run immediately")
	}
}

func TestVirtualAfterFuncOrderAndStop(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	v.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	v.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	stop := v.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	if !stop() {
		t.Fatal("stop returned false for pending timer")
	}
	if stop() {
		t.Fatal("second stop returned true")
	}
	v.Advance(5 * time.Second)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestVirtualFIFOAtSameDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	v.Advance(time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestVirtualCallbackScheduling(t *testing.T) {
	// A callback that schedules another timer due within the same Advance
	// window must still fire during that Advance.
	v := NewVirtual(epoch)
	var fired atomic.Int32
	v.AfterFunc(time.Second, func() {
		v.AfterFunc(time.Second, func() { fired.Add(1) })
	})
	v.Advance(5 * time.Second)
	if fired.Load() != 1 {
		t.Fatalf("chained timer fired %d times, want 1", fired.Load())
	}
}

func TestVirtualPendingAndNextDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("NextDeadline with no timers reported ok")
	}
	v.AfterFunc(5*time.Second, func() {})
	v.AfterFunc(2*time.Second, func() {})
	if v.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", v.Pending())
	}
	at, ok := v.NextDeadline()
	if !ok || !at.Equal(epoch.Add(2*time.Second)) {
		t.Fatalf("NextDeadline = %v %v", at, ok)
	}
}

func TestVirtualSleepUnblocksOnAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Second)
		close(done)
	}()
	// Wait for the sleeper to register its timer.
	for v.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock")
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	if t0.IsZero() {
		t.Fatal("real Now is zero")
	}
	fired := make(chan struct{})
	stop := c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc did not fire")
	}
	stop()
	c.Sleep(time.Millisecond)
}
