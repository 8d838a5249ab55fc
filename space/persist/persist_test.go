package persist

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/internal/core"
	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/space/spacetest"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/tuple"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func item(v int64) tuple.Tuple { return tuple.T(tuple.String("it"), tuple.Int(v)) }
func itemTmpl() tuple.Template { return tuple.Tmpl(tuple.String("it"), tuple.FormalInt()) }

func open(t *testing.T, path string, clk clock.Clock) *Space {
	t.Helper()
	s, err := Open(path, store.New(store.WithClock(orReal(clk))), clk)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func orReal(c clock.Clock) clock.Clock {
	if c == nil {
		return clock.Real{}
	}
	return c
}

func TestTuplesSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	s := open(t, path, nil)
	for v := int64(0); v < 5; v++ {
		if _, err := s.Out(item(v), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Inp(tuple.Tmpl(tuple.String("it"), tuple.Int(2))); !ok {
		t.Fatal("take failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: 4 tuples remain, and exactly the right ones.
	s2 := open(t, path, nil)
	defer s2.Close()
	if s2.Count() != 4 {
		t.Fatalf("count after restart = %d", s2.Count())
	}
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(2))); ok {
		t.Fatal("taken tuple resurrected")
	}
	for _, v := range []int64{0, 1, 3, 4} {
		if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(v))); !ok {
			t.Fatalf("tuple %d lost across restart", v)
		}
	}
}

func TestExpiredTuplesNotReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	clk := clock.NewVirtual(epoch)
	s := open(t, path, clk)
	s.Out(item(1), epoch.Add(time.Second))
	s.Out(item(2), time.Time{})
	s.Close()

	clk.Advance(time.Hour) // the device was off for an hour
	s2 := open(t, path, clk)
	defer s2.Close()
	if s2.Count() != 1 {
		t.Fatalf("count = %d, want 1 (expired tuple must not replay)", s2.Count())
	}
}

// TestExpiredReinstatementDoesNotDeadlock is the store's test of the same
// name run through the WAL wrapper: a release or an Out that stores an
// already expired tuple on a virtual clock returns, and the next clock
// step reclaims it.
func TestExpiredReinstatementDoesNotDeadlock(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	s := open(t, filepath.Join(t.TempDir(), "space.log"), clk)
	s.Out(item(1), epoch.Add(time.Second))
	h, ok := s.Hold(itemTmpl())
	if !ok {
		t.Fatal("Hold found nothing")
	}
	clk.Advance(2 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Release()
		s.Out(item(2), clk.Now().Add(-time.Second))
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("storing an already expired tuple never returned") // and Close would hang too
	}
	clk.Advance(time.Nanosecond)
	if n := s.Count(); n != 0 {
		t.Fatalf("%d expired tuples survive the next clock step", n)
	}
	s.Close()
}

func TestWaiterTakeIsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	s := open(t, path, nil)
	w := s.Wait(itemTmpl(), true)
	s.Out(item(9), time.Time{})
	if got, ok := <-w.Chan(); !ok || !got.Equal(item(9)) {
		t.Fatal("waiter not served")
	}
	s.Close()
	s2 := open(t, path, nil)
	defer s2.Close()
	if s2.Count() != 0 {
		t.Fatalf("count = %d: waiter-consumed tuple resurrected", s2.Count())
	}
}

func TestHoldAcceptDurableReleaseNot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	s := open(t, path, nil)
	s.Out(item(1), time.Time{})
	s.Out(item(2), time.Time{})
	h1, ok := s.Hold(tuple.Tmpl(tuple.String("it"), tuple.Int(1)))
	if !ok {
		t.Fatal("hold 1 failed")
	}
	h1.Accept()
	h1.Release() // no-op
	h2, ok := s.Hold(tuple.Tmpl(tuple.String("it"), tuple.Int(2)))
	if !ok {
		t.Fatal("hold 2 failed")
	}
	h2.Release()
	h2.Accept() // no-op
	s.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(1))); ok {
		t.Fatal("accepted hold resurrected")
	}
	if _, ok := s2.Rdp(tuple.Tmpl(tuple.String("it"), tuple.Int(2))); !ok {
		t.Fatal("released hold lost")
	}
}

// TestHoldWaiterContract runs the shared Park table over the WAL, with a
// compaction threshold every few records cross: a sink that releases its
// hold rotates the log from inside the Out that called it.
func TestHoldWaiterContract(t *testing.T) {
	spacetest.Parking(t, func(t *testing.T) space.Space {
		met := &trace.Metrics{}
		sp, err := OpenWith(filepath.Join(t.TempDir(), "space.log"), store.New(), nil,
			Options{CompactAt: 64, Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		if t.Name() == "TestHoldWaiterContract/the_sink_runs_inside_the_out_and_may_call_back" {
			t.Cleanup(func() {
				if met.Get(trace.CtrWALCompactions) < 2 { // Open is the first
					t.Error("no release inside a sink compacted the log")
				}
			})
		}
		return sp
	})
}

// TestWaitedHoldDurableOnAcceptOnly: a hold handed to a parked taker is
// durable the way any hold is. A restart before it is settled brings the
// tuple back (the out was logged, the tentative removal never is); an
// accept removes it for good; a release leaves it.
func TestWaitedHoldDurableOnAcceptOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	s := open(t, path, nil)
	key := func(v int64) tuple.Template { return tuple.Tmpl(tuple.String("it"), tuple.Int(v)) }
	held := make(map[int64]space.Hold)
	for v := int64(1); v <= 3; v++ {
		w := spacetest.Park(s, key(v), true)
		if id, err := s.Out(item(v), time.Time{}); err != nil || id == 0 {
			t.Fatalf("Out(%d) = %d %v", v, id, err)
		}
		select {
		case d := <-w.C:
			if !d.T.Equal(item(v)) {
				t.Fatalf("taker %d got %v", v, d.T)
			}
			held[v] = d.H
		default:
			t.Fatalf("taker %d not called inside the out", v)
		}
	}
	if s.Count() != 0 {
		t.Fatalf("count with three holds out = %d", s.Count())
	}
	held[1].Accept()
	held[2].Release()
	// held[3] is never settled: the process dies with it outstanding.
	s.Close()

	s2 := open(t, path, nil)
	defer s2.Close()
	if _, ok := s2.Rdp(key(1)); ok {
		t.Fatal("accepted hold resurrected")
	}
	if _, ok := s2.Rdp(key(2)); !ok {
		t.Fatal("released hold lost")
	}
	if _, ok := s2.Rdp(key(3)); !ok {
		t.Fatal("tuple under an unsettled hold lost by the restart")
	}
	if s2.Count() != 2 {
		t.Fatalf("count after restart = %d, want 2", s2.Count())
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	s := open(t, path, nil)
	s.Out(item(1), time.Time{})
	s.Close()
	// Simulate a crash mid-append: garbage at the tail.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x01, 0x02})
	f.Close()
	s2 := open(t, path, nil)
	defer s2.Close()
	if s2.Count() != 1 {
		t.Fatalf("count = %d after torn tail", s2.Count())
	}
}

func TestCompactionShrinksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.log")
	s := open(t, path, nil)
	for v := int64(0); v < 100; v++ {
		s.Out(item(v), time.Time{})
	}
	for v := int64(0); v < 99; v++ {
		if _, ok := s.Inp(itemTmpl()); !ok {
			t.Fatal("drain failed")
		}
	}
	s.Close()
	bloated := fileSize(t, path)

	s2 := open(t, path, nil) // Open compacts
	defer s2.Close()
	if got := fileSize(t, path); got >= bloated {
		t.Fatalf("log not compacted: %d -> %d bytes", bloated, got)
	}
	if s2.Count() != 1 {
		t.Fatalf("count = %d after compaction", s2.Count())
	}
}

// TestInstancePersistentSpaceEndToEnd wires the durable space into a real
// instance (Config.Space + Config.Persistent): data put into the node's
// space survives the node restarting, which is exactly what the paper's
// persistent-space flag advertises to peers (§2.4).
func TestInstancePersistentSpaceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.log")
	net := memnet.New()
	defer net.Close()

	boot := func(addr string) *core.Instance {
		ep, err := net.Attach("node")
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Open(path, store.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := core.New(core.Config{Endpoint: ep, Space: sp, Persistent: true})
		if err != nil {
			t.Fatal(err)
		}
		_ = addr
		return inst
	}
	inst := boot("node")
	if err := inst.Out(item(42), nil); err != nil {
		t.Fatal(err)
	}
	inst.Close()

	inst2 := boot("node")
	defer inst2.Close()
	res, ok, err := inst2.Rdp(context.Background(), itemTmpl(), nil)
	if err != nil || !ok {
		t.Fatalf("tuple lost across node restart: %v %v", ok, err)
	}
	if v, _ := res.Tuple.IntAt(1); v != 42 {
		t.Fatalf("got %v", res.Tuple)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := statFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// small os helpers kept out of the test bodies.
func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
}

func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
