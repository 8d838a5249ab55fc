package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// TestGatedSendStripsAdvisoryFields pins the per-destination gate
// (DESIGN.md §14): toward a known-baseline peer an advisory field
// (busy) is dropped — the frame arrives as its baseline form while the
// caller's message is never written — and a semantic field (a replica
// identity) makes the send refuse outright. After the peer upgrades,
// the same frames pass untouched.
func TestGatedSendStripsAdvisoryFields(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	b, err := r.net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	bin := &inbox{ep: b}

	a.list.ObserveAnnounce("b", 0, false) // caps-less announce: known baseline
	m := &wire.Message{Type: wire.TResult, ID: 41, From: "a", Busy: true}
	before := *m
	if err := a.send("b", m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*m, before) {
		t.Fatalf("send wrote to the caller's message: %+v, was %+v", *m, before)
	}
	eventually(t, "stripped result delivered", func() bool { return bin.find(41) != nil })
	if bin.find(41).Busy {
		t.Fatal("busy marker crossed a gated link")
	}
	if r.met.Get(trace.CtrCapsGatedSends) == 0 {
		t.Fatal("gated send not counted")
	}

	out := &wire.Message{Type: wire.TOut, ID: 42, From: "a", TTL: time.Hour,
		Tuple: req(1), ReplOrigin: "a", ReplSeq: 3}
	outBefore := *out
	if err := a.send("b", out); !errors.Is(err, errCapsGated) {
		t.Fatalf("identity-bearing out toward baseline peer: err=%v, want errCapsGated", err)
	}
	if !reflect.DeepEqual(*out, outBefore) {
		t.Fatalf("refused send wrote to the caller's message: %+v, was %+v", *out, outBefore)
	}
	if bin.find(42) != nil {
		t.Fatal("refused frame must not be delivered")
	}

	a.list.ObserveAnnounce("b", wire.CapsCurrent, false) // peer upgraded mid-flight
	m2 := &wire.Message{Type: wire.TResult, ID: 43, From: "a", Busy: true}
	if err := a.send("b", m2); err != nil {
		t.Fatal(err)
	}
	eventually(t, "ungated result delivered", func() bool { return bin.find(43) != nil })
	if !bin.find(43).Busy {
		t.Fatal("busy marker lost toward a capable peer")
	}
	if err := a.send("b", out); err != nil {
		t.Fatalf("identity-bearing out toward capable peer: %v", err)
	}
	eventually(t, "replicate delivered", func() bool { return bin.find(42) != nil })
	if bin.find(42).ReplSeq != 3 {
		t.Fatal("replica identity lost toward a capable peer")
	}
}

// TestAnnounceCapsPolicy pins the one deliberate gating exception: an
// announce toward a peer of unknown build carries the capability set as
// an optimistic probe, while toward a known-baseline peer it is
// stripped back to the byte-identical baseline frame.
func TestAnnounceCapsPolicy(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	b, err := r.net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	bin := &inbox{ep: b}

	probe := &wire.Message{Type: wire.TAnnounce, ID: 51, From: "a"}
	a.stampAnnounce(probe)
	if err := a.send("b", probe); err != nil { // build unknown: caps ride
		t.Fatal(err)
	}
	eventually(t, "optimistic announce delivered", func() bool { return bin.find(51) != nil })
	if bin.find(51).Caps != wire.CapsCurrent {
		t.Fatalf("announce toward unknown peer carried caps %#x, want %#x",
			bin.find(51).Caps, uint64(wire.CapsCurrent))
	}

	a.list.ObserveAnnounce("b", 0, false) // learned baseline: probing stops
	again := &wire.Message{Type: wire.TAnnounce, ID: 52, From: "a"}
	a.stampAnnounce(again)
	if err := a.send("b", again); err != nil {
		t.Fatal(err)
	}
	eventually(t, "gated announce delivered", func() bool { return bin.find(52) != nil })
	if got := bin.find(52); got.Caps != 0 || got.Degraded {
		t.Fatalf("announce toward baseline peer not stripped: caps=%#x degraded=%v", got.Caps, got.Degraded)
	}
}

// TestSendSharedMessageAcrossVersions sends one *wire.Message from two
// goroutines at once, toward a capability-aware peer and a known-baseline
// one — what the served-reply cache does when governor workers replay a
// busy result to requesters on different builds. Each peer must only ever
// see its own form of the frame, and the shared message must come out
// bit-identical; under -race a send path that writes to it fails here.
func TestSendSharedMessageAcrossVersions(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	attach := func(addr wire.Addr, caps uint64) *inbox {
		ep, err := r.net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		a.list.ObserveAnnounce(addr, caps, false)
		return &inbox{ep: ep}
	}
	aware, baseline := attach("new", wire.CapsCurrent), attach("old", 0)
	r.net.ConnectAll()

	const rounds = 1000
	shared := &wire.Message{Type: wire.TResult, ID: 61, From: "a", Busy: true}
	before := *shared
	var wg sync.WaitGroup
	for _, to := range []wire.Addr{"new", "old"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if err := a.send(to, shared); err != nil {
					t.Errorf("send to %s: %v", to, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(*shared, before) {
		t.Fatalf("shared message changed: %+v, was %+v", *shared, before)
	}
	for _, c := range []struct {
		in   *inbox
		busy bool
	}{{aware, true}, {baseline, false}} {
		got := c.in.drain()
		if len(got) != rounds {
			t.Fatalf("%s received %d frames, want %d", c.in.ep.Addr(), len(got), rounds)
		}
		for _, m := range got {
			if m.Busy != c.busy {
				t.Fatalf("%s saw busy=%v, want only busy=%v", c.in.ep.Addr(), m.Busy, c.busy)
			}
		}
	}
}

// TestInboundCoalescedAck pins the one ack path with no producer left in
// this repository: a peer on an older build may still fold several acks
// into one frame (wire.Message AckIDs, DESIGN.md §12), and every ID such
// a frame covers must settle exactly as if it had arrived alone. a and b
// are pending accepts, c a pending rpc, d nothing this node knows. The
// frame is injected once, then once more over a link that duplicates it.
func TestInboundCoalescedAck(t *testing.T) {
	for name, dup := range map[string]bool{"once": false, "duplicated": true} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, []wire.Addr{"n"}, nil)
			n := r.inst["n"]
			old, err := r.net.Attach("old")
			if err != nil {
				t.Fatal(err)
			}
			r.net.ConnectAll()
			in := &inbox{ep: old}

			lse, err := n.mgr.Grant(lease.OpIn, opLease(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			n.acceptHold("old", 1, lse)
			n.acceptHold("old", 2, lse)
			rpcDone := make(chan error, 1)
			go func() {
				rpcDone <- n.OutAt("old", req(1), lease.Flexible(lease.Terms{Duration: time.Hour, MaxBytes: 1 << 10, MaxRemotes: 4}))
			}()
			eventually(t, "two accepts and the out reach the old peer", func() bool {
				return len(in.ofType(wire.TAccept)) == 2 && len(in.ofType(wire.TOut)) == 1
			})
			accepts := in.ofType(wire.TAccept)

			if dup {
				r.net.SetFaults(memnet.Faults{Dup: 1})
			}
			const unknown = 1 << 40
			if err := old.Send("n", &wire.Message{Type: wire.TAck, ID: accepts[0].ID, From: "old", OK: true,
				AckIDs: []uint64{accepts[1].ID, in.ofType(wire.TOut)[0].ID, unknown}}); err != nil {
				t.Fatal(err)
			}

			select {
			case err := <-rpcDone:
				if err != nil {
					t.Fatalf("rpc covered by a coalesced ack: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("rpc never returned")
			}
			eventually(t, "both accepts settled", func() bool {
				n.mu.Lock()
				defer n.mu.Unlock()
				return len(n.pendAccepts) == 0
			})
			// Settled accepts have no retry timer left to fire.
			r.clk.Advance(10 * time.Second)
			if got := len(in.ofType(wire.TAccept)); got != 2 {
				t.Fatalf("%d accept frames, want 2 (no retransmission)", got)
			}
			if got := r.met.Get(trace.CtrRetries); got != 0 {
				t.Fatalf("retries = %d, want 0", got)
			}
			want := int64(3)
			if dup {
				// The duplicate frame re-settles idempotently — once the
				// receive loop, which nothing above waits for, gets to it.
				want = 6
			}
			eventually(t, "every copy of the frame counted", func() bool {
				return r.met.Get(trace.CtrAcksCoalesced) >= want
			})
			if got := r.met.Get(trace.CtrAcksCoalesced); got != want {
				t.Fatalf("%s = %d, want %d", trace.CtrAcksCoalesced, got, want)
			}
			lse.Cancel()
		})
	}
}

// TestHelloCarriesCapsWhateverArrivedFirst: a booting node's hello carries
// its capability set even when a peer's frame already waits in its inbox.
// Handled before the hello, a discover from a peer of unknown build put an
// unknown entry on the responder list, which empties the common caps a
// multicast is restricted to, and the hello went out caps-less: every
// capable peer kept a rolling upgrade's canary as baseline (C6's
// "capabilities not learned cluster-wide").
func TestHelloCarriesCapsWhateverArrivedFirst(t *testing.T) {
	r := newRig(t, nil, nil)
	attach := func(addr wire.Addr) transport.Endpoint {
		ep, err := r.net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	aware, prober, ep := attach("aware"), attach("prober"), attach("c")
	r.net.ConnectAll()
	if err := prober.Send("c", &wire.Message{Type: wire.TDiscover, ID: 7, From: "prober"}); err != nil {
		t.Fatal(err)
	}
	sp := &drainFirst{Space: store.New(store.WithClock(r.clk)), inbox: ep.Recv()}
	c, err := New(Config{Endpoint: ep, Clock: r.clk, Metrics: r.met, Space: sp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := &inbox{ep: aware}
	eventually(t, "hello delivered", func() bool { return in.find(helloID) != nil })
	if got := in.find(helloID).Caps; got != wire.CapsCurrent {
		t.Fatalf("hello carried caps %#x, want %#x", got, uint64(wire.CapsCurrent))
	}
}

// drainFirst is a space whose first Degraded call, the boot hello's
// announce stamp, waits for the node's inbox to drain (up to 100ms) and
// what was drained to be handled: a receive loop running by then gets to
// its frames before the hello is built.
type drainFirst struct {
	space.Space
	inbox <-chan *wire.Message
	once  sync.Once
}

func (s *drainFirst) Degraded() bool {
	s.once.Do(func() {
		for k := 0; len(s.inbox) > 0 && k < 100; k++ {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond)
	})
	return false
}
