package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tiamat/internal/store"
	"tiamat/space"
	"tiamat/transport"
	"tiamat/wire"
)

// TestFirstReplyToUnannouncedRequesterGoesWhole: a responder that has never
// heard a requester announce sends it every reply whole (DESIGN.md §14).
// A governor refusal's TResult carries its busy marker, so the requester
// fails over instead of retrying here, and the responder sends the
// requester nothing it did not ask for: no probe for its build.
func TestFirstReplyToUnannouncedRequesterGoesWhole(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, func(c *Config) {
		c.Governor = GovernorConfig{MaxPeerWaits: 1, MaxTotalWaits: 8, ShedWatermark: 1.0}
	})
	a := r.inst["a"]
	x, err := r.net.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	xin := &inbox{ep: x}

	for id := uint64(1); id <= 2; id++ {
		if err := x.Send("a", opFrame("x", id, wire.OpIn, time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the second wait refused", func() bool { return xin.find(2) != nil })
	if m := xin.find(2); m.Type != wire.TResult || m.Found || !m.Busy {
		t.Fatalf("refusal toward a requester that never announced: %+v, want a not-found TResult with Busy", m)
	}
	if waitsLen(a) != 1 {
		t.Fatalf("wait table = %d, want the first wait parked", waitsLen(a))
	}
	if got := xin.ofType(wire.TDiscover); len(got) != 0 {
		t.Fatalf("a probed the requester's build %d times", len(got))
	}
}

// TestAnnounceCapsPolicy pins the announce policy: every announce carries
// this build's capability set, toward a peer this node has never heard
// announce and toward a listed one alike. Without it no peer lists the
// sender.
func TestAnnounceCapsPolicy(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	b, err := r.net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	bin := &inbox{ep: b}

	for k, listed := range []bool{false, true} {
		if listed {
			a.list.ObserveAnnounce("b", wire.CapsCurrent, false)
		}
		id := uint64(51 + k)
		if err := a.send("b", a.announce(id)); err != nil {
			t.Fatal(err)
		}
		eventually(t, "announce delivered", func() bool { return bin.find(id) != nil })
		if got := bin.find(id).Caps; got != wire.CapsCurrent {
			t.Fatalf("announce toward a peer listed=%v carried caps %#x, want %#x", listed, got, uint64(wire.CapsCurrent))
		}
	}
}

// TestSendSharedMessageToTwoPeers sends one *wire.Message from two
// goroutines at once, toward a listed peer and one this node never heard
// announce — what the served-reply cache does when governor workers replay
// a busy result to two requesters. Both see the frame whole, and the
// shared message comes out bit-identical; under -race a send path that
// writes to it fails here.
func TestSendSharedMessageToTwoPeers(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	attach := func(addr wire.Addr) *inbox {
		ep, err := r.net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		return &inbox{ep: ep}
	}
	listed, unheard := attach("listed"), attach("unheard")
	a.list.ObserveAnnounce("listed", wire.CapsCurrent, false)
	r.net.ConnectAll()

	const rounds = 1000
	shared := &wire.Message{Type: wire.TResult, ID: 61, From: "a", Busy: true}
	before := *shared
	var wg sync.WaitGroup
	for _, to := range []wire.Addr{"listed", "unheard"} {
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
	for _, in := range []*inbox{listed, unheard} {
		got := in.drain()
		if len(got) != rounds {
			t.Fatalf("%s received %d frames, want %d", in.ep.Addr(), len(got), rounds)
		}
		for _, m := range got {
			if !m.Busy {
				t.Fatalf("%s saw a frame without its busy marker", in.ep.Addr())
			}
		}
	}
}

// TestHelloCarriesCapsWhateverArrivedFirst: a booting node's hello carries
// its capability set even when a peer's frame already waits in its inbox
// and is handled first. A hello without it lists the node nowhere, and a
// restarted node stays unlisted until its peers run a discovery round.
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
