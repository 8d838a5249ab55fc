// Public-API tests: everything here uses only the importable surface a
// downstream user sees (the root package and its public sub-packages).
package tiamat_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tiamat"
	"tiamat/clock"
	"tiamat/lease"
	"tiamat/space/naive"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func pair(t *testing.T) (*tiamat.Instance, *tiamat.Instance, *memnet.Network, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	net := memnet.New(memnet.WithClock(clk))
	t.Cleanup(net.Close)
	epA, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	net.ConnectAll()
	a, err := tiamat.New(tiamat.Config{Endpoint: epA, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := tiamat.New(tiamat.Config{Endpoint: epB, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b, net, clk
}

func TestPublicAPIEndToEnd(t *testing.T) {
	a, b, _, _ := pair(t)
	ctx := context.Background()

	if err := a.Out(tuple.T(tuple.String("msg"), tuple.Int(1)), nil); err != nil {
		t.Fatal(err)
	}
	res, ok, err := b.Inp(ctx, tuple.Tmpl(tuple.String("msg"), tuple.FormalInt()), nil)
	if err != nil || !ok {
		t.Fatalf("Inp = %v %v", ok, err)
	}
	if res.From != "a" {
		t.Fatalf("From = %s", res.From)
	}
	// OutBack returns the tuple to its origin.
	if err := b.OutBack(tiamat.Result{Tuple: res.Tuple, From: res.From}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Rdp(ctx, tuple.Tmpl(tuple.String("msg"), tuple.FormalInt()), nil); !ok {
		t.Fatal("OutBack did not land at origin")
	}
}

func TestPublicErrorsAreUsable(t *testing.T) {
	a, _, _, clk := pair(t)
	done := make(chan error, 1)
	go func() {
		_, err := a.In(context.Background(),
			tuple.Tmpl(tuple.String("never")),
			lease.Flexible(lease.Terms{Duration: time.Second}))
		done <- err
	}()
	// Let the op register its lease before expiring it.
	for clk.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	clk.Advance(2 * time.Second)
	select {
	case err := <-done:
		if !errors.Is(err, tiamat.ErrNoMatch) {
			t.Fatalf("err = %v, want tiamat.ErrNoMatch", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("In never returned")
	}
	a.Close()
	if err := a.Out(tuple.T(tuple.Int(1)), nil); !errors.Is(err, tiamat.ErrClosed) {
		t.Fatalf("err = %v, want tiamat.ErrClosed", err)
	}
}

func TestConfigWithCustomSpaceAndMetrics(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	met := &trace.Metrics{}
	net := memnet.New(memnet.WithClock(clk))
	defer net.Close()
	ep, _ := net.Attach("custom")
	inst, err := tiamat.New(tiamat.Config{
		Endpoint: ep,
		Clock:    clk,
		Metrics:  met,
		Space:    naive.New(clk),
		Leases:   lease.ConstrainedCapacity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if err := inst.Out(tuple.T(tuple.String("x")), nil); err != nil {
		t.Fatal(err)
	}
	if met.Get(trace.CtrOpsOut) != 1 {
		t.Fatalf("metrics not wired: %v", met.Snapshot())
	}
	if inst.LocalSpace().Count() != 2 { // info tuple + x
		t.Fatalf("count = %d", inst.LocalSpace().Count())
	}
}

func TestEvalThroughPublicAPI(t *testing.T) {
	a, b, _, _ := pair(t)
	var fn tiamat.EvalFunc = func(_ context.Context, args tuple.Tuple) (tuple.Tuple, error) {
		v, _ := args.IntAt(0)
		return tuple.T(tuple.String("sq"), tuple.Int(v*v)), nil
	}
	b.RegisterEval("square", fn)
	if err := a.EvalAt("b", "square", tuple.T(tuple.Int(9)), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok, _ := a.Rdp(context.Background(), tuple.Tmpl(tuple.String("sq"), tuple.Int(81)), nil); ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("eval result never appeared in the logical space")
}

func TestSpacesAndSpaceInfoTuple(t *testing.T) {
	a, _, _, _ := pair(t)
	infos, err := a.Spaces(context.Background())
	if err != nil || len(infos) != 2 {
		t.Fatalf("Spaces = %v %v", infos, err)
	}
	p := tuple.Tmpl(tuple.String(tiamat.SpaceInfoName), tuple.String("b"), tuple.FormalBool())
	if _, ok, _ := a.Rdp(context.Background(), p, nil); !ok {
		t.Fatal("remote space-info tuple unreadable")
	}
}

func TestRoutePolicyConstants(t *testing.T) {
	var p tiamat.RoutePolicy = tiamat.RouteLocal
	if p == tiamat.RouteAbandon || tiamat.RouteAbandon == tiamat.RouteRelay {
		t.Fatal("route policies must be distinct")
	}
}

func TestWireAddrFlowsThroughAPI(t *testing.T) {
	a, _, _, _ := pair(t)
	var addr wire.Addr = a.Addr()
	if addr != "a" {
		t.Fatalf("Addr = %s", addr)
	}
	if rl := a.ResponderList(); rl == nil {
		_ = rl // empty list is fine; must not panic
	}
}

// TestParkedTemplateOutlivesReadBuffer: a served blocking In parks the
// template of the frame that carried it, uncopied. Over TCP that frame was
// read through its connection's one reused read buffer; the frames read
// after it overwrite the buffer several times before the match arrives,
// and the wait must still match and deliver the right tuple.
func TestParkedTemplateOutlivesReadBuffer(t *testing.T) {
	a, b, _ := tcpPair(t)
	ctx := context.Background()
	// b learns a with a read that leaves a's leases as they are.
	if err := a.Out(remoteTuple, nil); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := b.Rdp(ctx, remoteTmpl, remoteReq); err != nil {
			t.Fatal(err)
		} else if ok {
			break
		}
	}
	// Keys are bytes fields, which a decoder that borrows its input
	// (wire.DecodeNoCopy) would leave aliasing that input.
	key := func(k int) tuple.Field { return tuple.Bytes([]byte(fmt.Sprintf("%0300d", k))) }
	want := tuple.T(key(-1), tuple.Int(7))
	active := a.LeaseManager().Stats().Active
	got := make(chan error, 1)
	go func() {
		res, err := b.In(ctx, tuple.Tmpl(key(-1), tuple.FormalInt()),
			lease.Flexible(lease.Terms{Duration: time.Minute, MaxRemotes: 4}))
		if err == nil && (!res.Tuple.Equal(want) || res.From != a.Addr()) {
			err = fmt.Errorf("In delivered %v from %s, want %v from %s", res.Tuple, res.From, want, a.Addr())
		}
		got <- err
	}()
	// The parked wait is the one lease a mints for it.
	for deadline := time.Now().Add(5 * time.Second); a.LeaseManager().Stats().Active != active+1; {
		if time.Now().After(deadline) {
			t.Fatal("the In never parked at a")
		}
		time.Sleep(time.Millisecond)
	}
	// Each probe is a frame of over 300 bytes on the same connection,
	// carrying another key at the same offsets: 64 KiB in all, four times
	// the 16 KiB read buffer.
	for k := 0; k < 200; k++ {
		if _, ok, err := b.Rdp(ctx, tuple.Tmpl(key(k), tuple.FormalInt()), remoteReq); err != nil || ok {
			t.Fatalf("probe %d: ok=%v err=%v", k, ok, err)
		}
	}
	// A template aliasing the read buffer would now hold the last probe's
	// key and take this decoy.
	if err := a.Out(tuple.T(key(199), tuple.Int(7)), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Out(want, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked In was never served")
	}
}
