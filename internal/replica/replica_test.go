package replica

import (
	"sync"
	"testing"
	"time"

	"tiamat/clock"
	"tiamat/internal/discovery"
	"tiamat/internal/store"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// These tests drive a Set through a fake Host: its sends are recorded and
// answered with a per-destination error, and its clock is virtual. No
// node, transport or receive loop runs.

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

const contact = 250 * time.Millisecond

// fakeHost records what a Set sends and fails sends to the addresses in
// down with their error.
type fakeHost struct {
	mu   sync.Mutex
	sent []frame
	down map[wire.Addr]error
	id   uint64
}

type frame struct {
	to wire.Addr
	m  *wire.Message
}

func (f *fakeHost) send(to wire.Addr, m *wire.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, frame{to, m})
	return f.down[to]
}

// drain returns what was sent since the last drain.
func (f *fakeHost) drain() []frame {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.sent
	f.sent = nil
	return out
}

func (f *fakeHost) nextID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.id++
	return f.id
}

// holderRig is a Set at "b" whose responder list knows "a", so the ring
// over {a, b} ranks b right below a for every copy a originates.
type holderRig struct {
	s    *Set
	host *fakeHost
	clk  *clock.Virtual
	list *discovery.ResponderList
}

func newHolderRig(t *testing.T) *holderRig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	q := clock.NewQueue(clk)
	t.Cleanup(q.Close)
	met := &trace.Metrics{}
	list := discovery.NewResponderList(64, met, clk)
	list.ObserveAnnounce("a", wire.CapsCurrent, false)
	f := &fakeHost{down: make(map[wire.Addr]error)}
	stopped := make(chan struct{})
	s := New(Host{
		Addr: "b", Replicas: 2, ContactTimeout: contact,
		Queue: q, List: list, Local: store.New(store.WithClock(q)), Metrics: met,
		Relays: func() []wire.Addr { return nil }, NextID: f.nextID,
		Send: f.send, Multicast: func(*wire.Message) {},
		Announce: func() *wire.Message { return &wire.Message{Type: wire.TAnnounce, From: "b"} },
		Closed:   func() bool { return false }, Stopping: func() bool { return false },
		Stopped: stopped, Recover: func(string) {},
	})
	return &holderRig{s: s, host: f, clk: clk, list: list}
}

func token() tuple.Tuple        { return tuple.T(tuple.String("job"), tuple.Int(7)) }
func tokenTmpl() tuple.Template { return tuple.Tmpl(tuple.String("job"), tuple.FormalInt()) }

// replicateFromA is a's replicate of token under identity (a, 7).
func replicateFromA(id uint64) *wire.Message {
	return &wire.Message{
		Type: wire.TOut, ID: id, From: "a", TTL: time.Minute,
		Tuple: token(), ReplOrigin: "a", ReplSeq: 7,
	}
}

// ackTo returns the one TAck sent for id, failing unless exactly one was.
func ackTo(t *testing.T, sent []frame, id uint64) *wire.Message {
	t.Helper()
	var acks []*wire.Message
	for _, f := range sent {
		if f.m.Type == wire.TAck && f.m.ID == id {
			acks = append(acks, f.m)
		}
	}
	if len(acks) != 1 {
		t.Fatalf("%d acks of frame %d sent, want 1", len(acks), id)
	}
	return acks[0]
}

// probes counts the proof-of-death announces sent to a.
func probes(sent []frame) int {
	n := 0
	for _, f := range sent {
		if f.to == "a" && f.m.Type == wire.TAnnounce {
			n++
		}
	}
	return n
}

// TestFailoverTakeNeedsProofOfDeath: b holds a copy of a's token and is
// ranked right below a, so b surrenders it to a failover take only once a
// is provably dead — suspected by the responder list, or a probe that the
// transport fails with ErrUnreachable — and only one ContactTimeout after
// the proof first held. A probe that leaves keeps the take with the live
// origin however long b waits.
func TestFailoverTakeNeedsProofOfDeath(t *testing.T) {
	for _, c := range []struct {
		name      string
		kill      func(r *holderRig)
		wantProbe bool // the proof sends a probe to a
		wantHold  bool
	}{
		{"probe leaves", func(*holderRig) {}, true, false},
		{"probe unreachable", func(r *holderRig) { r.host.down["a"] = transport.ErrUnreachable }, true, true},
		{"origin suspected", func(r *holderRig) {
			for !r.list.Suspected("a") {
				r.list.Fail("a")
			}
		}, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newHolderRig(t)
			if !r.s.Frame(replicateFromA(1), r.clk.Now()) {
				t.Fatal("a replicate was not taken as a replica frame")
			}
			if ack := ackTo(t, r.host.drain(), 1); !ack.OK {
				t.Fatalf("replicate refused: %q", ack.Err)
			}
			c.kill(r)

			// The first attempt after the proof holds arms the grace.
			if h, ok := r.s.FailoverHold(tokenTmpl(), r.clk.Now()); ok {
				t.Fatalf("copy surrendered before the failover grace: %v", h.Tuple())
			}
			r.clk.Advance(contact + time.Millisecond)
			h, ok := r.s.FailoverHold(tokenTmpl(), r.clk.Now())
			sent := r.host.drain()
			if got := probes(sent) > 0; got != c.wantProbe {
				t.Fatalf("probed a: %v, want %v (sent %d frames)", got, c.wantProbe, len(sent))
			}
			if ok != c.wantHold {
				t.Fatalf("copy surrendered: %v, want %v", ok, c.wantHold)
			}
			if !ok {
				if n := r.s.Copies(tokenTmpl(), r.clk.Now()); n != 1 {
					t.Fatalf("%d copies after a refused failover take, want 1", n)
				}
				return
			}
			if !h.Tuple().Equal(token()) {
				t.Fatalf("held %v, want %v", h.Tuple(), token())
			}
			if origin, seq := r.s.Identity(h); origin != "a" || seq != 7 {
				t.Fatalf("the hold's identity = (%s, %d), want (a, 7)", origin, seq)
			}
			h.Accept()
			rep := r.s.Report()
			if rep.FailoverTakes != 1 || rep.Copies != 0 || rep.Fences != 1 {
				t.Fatalf("after the accept: %+v, want one failover take, no copy, one fence", rep)
			}
		})
	}
}

// TestInvalidateFencesLateReplicateAtTheSet: an invalidation, which
// reaches the Set with no reading of its own, drops b's copy and fences
// its identity; a late re-delivery of the replicate is then refused as
// fenced and stores nothing.
func TestInvalidateFencesLateReplicateAtTheSet(t *testing.T) {
	r := newHolderRig(t)
	r.s.Frame(replicateFromA(1), r.clk.Now())
	if n := r.s.Copies(tokenTmpl(), r.clk.Now()); n != 1 {
		t.Fatalf("%d copies after the replicate, want 1", n)
	}
	if !r.s.Frame(&wire.Message{Type: wire.TCancel, ID: 2, From: "a", ReplOrigin: "a", ReplSeq: 7}, time.Time{}) {
		t.Fatal("an invalidation was not taken as a replica frame")
	}
	if n := r.s.Copies(tokenTmpl(), r.clk.Now()); n != 0 {
		t.Fatalf("%d copies after the invalidation, want 0", n)
	}
	r.host.drain()
	r.clk.Advance(time.Second)
	r.s.Frame(replicateFromA(3), r.clk.Now())
	if ack := ackTo(t, r.host.drain(), 3); ack.OK || ack.Err != "fenced" {
		t.Fatalf("late replicate answered OK=%v %q, want refused as fenced", ack.OK, ack.Err)
	}
	rep := r.s.Report()
	if rep.Copies != 0 || rep.Fences != 1 || rep.FencedHolds != 1 {
		t.Fatalf("after the late replicate: %+v, want no copy, one fence, one fenced hold", rep)
	}
}
