package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

// opsHeard is an endpoint that counts the TOp frames it receives, handing
// every frame on to its instance in order until it is closed, except those
// it sheds itself (shedOps).
type opsHeard struct {
	transport.Endpoint
	in   chan *wire.Message
	stop chan struct{}
	once sync.Once
	mu   sync.Mutex
	n    int
	shed int
}

func hearOps(ep transport.Endpoint) *opsHeard {
	// As deep as memnet's own inbox, whose frames it forwards.
	h := &opsHeard{Endpoint: ep, in: make(chan *wire.Message, cap(ep.Recv())), stop: make(chan struct{})}
	go func() {
		defer close(h.in)
		for m := range ep.Recv() {
			if m.Type == wire.TOp {
				h.mu.Lock()
				h.n++
				shed := h.shed > 0
				if shed {
					h.shed--
				}
				h.mu.Unlock()
				if shed {
					// As the governor sheds under pressure: a busy
					// not-found, and nothing filed to replay.
					_ = ep.Send(m.From, &wire.Message{Type: wire.TResult, ID: m.ID, From: ep.Addr(), Busy: true})
					continue
				}
			}
			select {
			case h.in <- m:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *opsHeard) Recv() <-chan *wire.Message { return h.in }

func (h *opsHeard) Close() error {
	h.once.Do(func() { close(h.stop) })
	return h.Endpoint.Close()
}

// shedOps answers the next n ops busy in the instance's stead.
func (h *opsHeard) shedOps(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shed = n
}

func (h *opsHeard) ops() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// TestMissAnsweredOncePerResponder: a nonblocking walk that reaches the
// end of its responder list multicasts once more (paper §3.1.3) to find
// the nodes the list does not hold, and skips the responders that already
// answered. q lists a and b, which hold nothing; c, unlisted but in range,
// holds the tuple. The Rdp and the Inp each find it at c, and a and b each
// hear the op once: the contact, not the re-probe.
func TestMissAnsweredOncePerResponder(t *testing.T) {
	for _, code := range []wire.OpCode{wire.OpRdp, wire.OpInp} {
		t.Run(code.String(), func(t *testing.T) {
			heard := map[wire.Addr]*opsHeard{}
			r := newRig(t, []wire.Addr{"q", "a", "b", "c"}, func(c *Config) {
				h := hearOps(c.Endpoint)
				heard[h.Addr()] = h
				c.Endpoint = h
			})
			r.net.ConnectAll()
			q := r.inst["q"]
			q.list.Observe("a")
			q.list.Observe("b")
			if err := r.inst["c"].Out(req(1), hourLease()); err != nil {
				t.Fatal(err)
			}

			var res Result
			var ok bool
			var err error
			if code == wire.OpRdp {
				res, ok, err = q.Rdp(context.Background(), reqTmpl(), opLease(time.Minute))
			} else {
				res, ok, err = q.Inp(context.Background(), reqTmpl(), opLease(time.Minute))
			}
			if err != nil || !ok || res.From != "c" {
				t.Fatalf("%s: %v from %q, ok %v, err %v; want the tuple from c", code, res.Tuple, res.From, ok, err)
			}
			waitQuiet(r.met)
			for _, a := range []wire.Addr{"a", "b", "c"} {
				if n := heard[a].ops(); n != 1 {
					t.Errorf("%s heard the %s %d times, want once", a, code, n)
				}
			}
			if n := r.met.Get(trace.CtrDedupDrops); n != 0 {
				t.Errorf("%s: %d dedup drops, want none", code, n)
			}
		})
	}
}

// TestBusyResponderIsReprobed: a busy refusal is no answer a copy of the
// op would replay, since the responder shed the op before filing it, so
// the closing multicast still offers the op to a responder that refused
// it. q lists only h, which holds the tuple and sheds q's first contact;
// the Rdp and the Inp each find the tuple when the multicast reaches h.
func TestBusyResponderIsReprobed(t *testing.T) {
	for _, code := range []wire.OpCode{wire.OpRdp, wire.OpInp} {
		t.Run(code.String(), func(t *testing.T) {
			var h *opsHeard
			r := newRig(t, []wire.Addr{"q", "h"}, func(c *Config) {
				if c.Endpoint.Addr() == "h" {
					h = hearOps(c.Endpoint)
					c.Endpoint = h
				}
			})
			r.net.ConnectAll()
			q := r.inst["q"]
			q.list.Observe("h")
			if err := r.inst["h"].Out(req(1), hourLease()); err != nil {
				t.Fatal(err)
			}
			h.shedOps(1)

			var res Result
			var ok bool
			var err error
			if code == wire.OpRdp {
				res, ok, err = q.Rdp(context.Background(), reqTmpl(), opLease(time.Minute))
			} else {
				res, ok, err = q.Inp(context.Background(), reqTmpl(), opLease(time.Minute))
			}
			if err != nil || !ok || res.From != "h" {
				t.Fatalf("%s: %v from %q, ok %v, err %v; want the tuple from h", code, res.Tuple, res.From, ok, err)
			}
			if n := h.ops(); n != 2 {
				t.Errorf("h heard the %s %d times, want twice: the shed contact and the multicast", code, n)
			}
		})
	}
}

// TestRediscoveryReparksEndedWait: a blocking op's not-found from a
// responder whose serve lease ended is not filed there (DESIGN.md §6), so
// the next rediscovery multicast parks a fresh wait at that responder.
// q's In waits at h; h revokes the wait's lease, which answers q
// not-found; the next rediscovery parks a wait at h again, and a tuple Out
// at h then reaches the In.
func TestRediscoveryReparksEndedWait(t *testing.T) {
	r := newRig(t, []wire.Addr{"q", "h"}, func(c *Config) {
		c.ContinuousDiscovery = true
		c.RediscoverInterval = 100 * time.Millisecond
	})
	r.net.ConnectAll()
	q, h := r.inst["q"], r.inst["h"]
	q.list.Observe("h")
	waits := func() int { return h.LeaseManager().Stats().Active }
	done := make(chan Result, 1)
	go func() {
		res, err := q.In(context.Background(), reqTmpl(), opLease(time.Hour))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	eventually(t, "a wait parked at h", func() bool { return waits() == 1 })
	if n := h.LeaseManager().Revoke(1); n != 1 {
		t.Fatalf("revoked %d", n)
	}
	// The not-found reaches q before the next rediscovery is due.
	waitQuiet(r.met)
	if n := waits(); n != 0 {
		t.Fatalf("%d waits at h after the revoke, want none", n)
	}
	r.clk.Advance(150 * time.Millisecond)
	eventually(t, "the rediscovery parked a wait at h again", func() bool { return waits() == 1 })
	if err := h.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.From != "h" {
			t.Fatalf("In got %v from %q, want the tuple from h", res.Tuple, res.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the In never got the tuple Out at h")
	}
}

// waitQuiet returns once met's network has sent no frame for three polls
// running.
func waitQuiet(met *trace.Metrics) {
	for last, still := int64(-1), 0; still < 3; time.Sleep(10 * time.Millisecond) {
		if n := met.Get(trace.CtrMsgsSent); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
}
