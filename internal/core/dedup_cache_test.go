package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// replayed admits a copy of the request key names and returns the reply
// the copy is answered with, if any; a copy that runs is filed at once,
// as the serve path files a run that recorded nothing.
func replayed(a *Instance, key waitKey) *wire.Message {
	replay, execute := a.admit(&wire.Message{Type: wire.TOut, ID: key.id, From: key.from})
	if execute {
		a.finishRun(key, a.clk.Now())
	}
	return replay
}

// TestServedCacheTTLExpiry verifies the dedup cache forgets replies once
// dedupTTL has passed: a lookup after the TTL misses, and the sweep
// on insert drops expired entries so a long-lived responder's memory is
// bounded by rate × TTL, not by lifetime.
func TestServedCacheTTLExpiry(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]

	key := waitKey{from: "peer", id: 1}
	a.recordServed(key, &wire.Message{Type: wire.TAck, ID: 1, From: a.Addr(), OK: true}, a.clk.Now())

	if hit := replayed(a, key); hit == nil {
		t.Fatal("fresh entry missed")
	}

	r.clk.Advance(dedupTTL + time.Second)
	if hit := replayed(a, key); hit != nil {
		t.Fatal("expired entry still served")
	}

	// The next insert's sweep must drop every expired entry and its
	// order slot, not just the looked-up key.
	for id := uint64(2); id <= 10; id++ {
		a.recordServed(waitKey{from: "peer", id: id},
			&wire.Message{Type: wire.TAck, ID: id, From: a.Addr(), OK: true}, a.clk.Now())
	}
	r.clk.Advance(dedupTTL + time.Second)
	a.recordServed(waitKey{from: "peer", id: 11},
		&wire.Message{Type: wire.TAck, ID: 11, From: a.Addr(), OK: true}, a.clk.Now())
	nEntries := countServed(a, func(finished) bool { return true })
	a.mu.Lock()
	nSlots := a.served.n
	a.mu.Unlock()
	if nEntries != 1 || nSlots != 1 {
		t.Fatalf("after sweep: %d entries, %d ring slots, want 1/1", nEntries, nSlots)
	}
}

// TestServedCacheReRecordKeepsFreshEntry: when a key is deleted out of
// band (settleHold on release) and later re-recorded, the slot the first
// recording vacated must not evict the fresh entry when it reaches the
// tail of the ring.
func TestServedCacheReRecordKeepsFreshEntry(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]

	key := waitKey{from: "peer", id: 1}
	a.recordServed(key, &wire.Message{Type: wire.TResult, ID: 1, From: a.Addr(), HoldID: 5}, a.clk.Now())

	// Out-of-band delete, as settleHold does on reinstatement.
	a.mu.Lock()
	a.served.drop(key)
	a.mu.Unlock()

	fresh := &wire.Message{Type: wire.TResult, ID: 1, From: a.Addr(), HoldID: 6}
	a.recordServed(key, fresh, a.clk.Now())

	// Fill the cache to exactly the size cap so the sweep pops the ring's
	// tail (the slot the first recording vacated) without any live entry
	// deserving size-cap eviction.
	for id := uint64(2); id <= uint64(servedCacheMax); id++ {
		a.recordServed(waitKey{from: "peer", id: id},
			&wire.Message{Type: wire.TAck, ID: id, From: a.Addr(), OK: true}, a.clk.Now())
	}

	if hit := replayed(a, key); hit == nil || hit.HoldID != 6 {
		t.Fatalf("fresh re-recorded entry lost (got %+v)", hit)
	}
}

// dupRig is one instance, a, and z, a bare endpoint playing the requester
// by hand.
type dupRig struct {
	*rig
	t   *testing.T
	a   *Instance
	z   transport.Endpoint
	zin *inbox
	ids uint64 // loop probes sent
}

func newDupRig(t *testing.T) *dupRig {
	t.Helper()
	return newDupRigWith(t, nil)
}

// newDupRigWith is newDupRig with a's config changed by mutate.
func newDupRigWith(t *testing.T, mutate func(*Config)) *dupRig {
	t.Helper()
	r := newRig(t, []wire.Addr{"a"}, mutate)
	z, err := r.net.Attach("z")
	if err != nil {
		t.Fatal(err)
	}
	r.net.ConnectAll()
	r.seedCaps("z")
	return &dupRig{rig: r, t: t, a: r.inst["a"], z: z, zin: &inbox{ep: z}}
}

// send sends m to a as z, and returns once a's receive loop has handled
// it and the serve work it admitted has run: a discover probe answered
// through the same loop proves the first, quiesceServe the second.
func (d *dupRig) send(m *wire.Message) {
	d.t.Helper()
	m.From = "z"
	if err := d.z.Send("a", m); err != nil {
		d.t.Fatal(err)
	}
	d.ids++
	probe := 1<<32 + d.ids
	if err := d.z.Send("a", &wire.Message{Type: wire.TDiscover, ID: probe, From: "z"}); err != nil {
		d.t.Fatal(err)
	}
	eventually(d.t, "a's loop handled the frame", func() bool { return d.zin.find(probe) != nil })
	quiesceServe(d.t, d.a)
}

// results returns the TResults z has been sent for op id.
func (d *dupRig) results(id uint64) (out []*wire.Message) {
	for _, m := range d.zin.ofType(wire.TResult) {
		if m.ID == id {
			out = append(out, m)
		}
	}
	return out
}

// TestCancelBeforeOpRegistersNoWait pins the cancel rule: a TCancel for a
// request this node does not know, or whose wait it has already ended,
// leaves a cancelled record, and a copy of the op that comes after it is
// dropped silently instead of parking a wait that holds a slot and a
// serve lease until the lease ends, for a requester that has moved on. A
// cancel beats its op on a reordering network, or when a hedge's frame is
// slower than the settlement cancel.
func TestCancelBeforeOpRegistersNoWait(t *testing.T) {
	op := func() *wire.Message { return opFrame("z", 1, wire.OpIn, time.Hour) }
	cancel := func() *wire.Message { return &wire.Message{Type: wire.TCancel, ID: 1} }
	for _, tc := range []struct {
		name   string
		frames []*wire.Message
	}{
		{"cancel then op", []*wire.Message{cancel(), op()}},
		{"op, cancel, op", []*wire.Message{op(), cancel(), op()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDupRig(t)
			for _, m := range tc.frames {
				d.send(m)
			}
			if n := waitsLen(d.a); n != 0 {
				t.Fatalf("waitsLen = %d after the cancel, want 0: a copy that came after it parked a wait", n)
			}
			if got := d.met.Get(trace.CtrDedupDrops); got != 1 {
				t.Fatalf("%s = %d, want 1: the copy after the cancel", trace.CtrDedupDrops, got)
			}
			if rs := d.results(1); len(rs) != 0 {
				t.Fatalf("z was sent %d results for a cancelled op: %+v", len(rs), rs)
			}
			for _, l := range d.a.mgr.ActiveLeases() {
				if l.Op() != lease.OpOut {
					t.Fatalf("%v serve lease still active", l.Op())
				}
			}
		})
	}
}

// TestDuplicateOfRequestInEachState sends a copy of a request in each
// state no other test pins and asserts the one answer it gets, and that at
// most one tuple left a's space for it.
func TestDuplicateOfRequestInEachState(t *testing.T) {
	take := func() *wire.Message { return opFrame("z", 1, wire.OpInp, time.Minute) }
	for _, tc := range []struct {
		name   string
		seeded bool // two matching tuples out before the first copy
		run    func(t *testing.T, d *dupRig)
	}{
		{"answered, then released: executes afresh under a new hold", true, func(t *testing.T, d *dupRig) {
			d.send(take())
			first := d.results(1)
			if len(first) != 1 || !first[0].Found {
				t.Fatalf("first copy answered %+v, want one found reply", first)
			}
			d.send(&wire.Message{Type: wire.TRelease, ID: 2, HoldID: first[0].HoldID})
			d.send(take())
			rs := d.results(1)
			if len(rs) != 2 || !rs[1].Found || rs[1].HoldID == first[0].HoldID {
				t.Fatalf("copy after the release answered %+v, want a found reply under a new hold", rs[1:])
			}
		}},
		{"ended by its serve lease: parks again, no not-found replayed", false, func(t *testing.T, d *dupRig) {
			wait := func() *wire.Message { return opFrame("z", 1, wire.OpIn, 50*time.Millisecond) }
			d.send(wait())
			d.clk.Advance(51 * time.Millisecond)
			eventually(t, "the lease end's not-found", func() bool { return len(d.results(1)) == 1 })
			if rs := d.results(1); rs[0].Found || waitsLen(d.a) != 0 {
				t.Fatalf("lease end answered %+v with %d waits left, want a not-found and none", rs[0], waitsLen(d.a))
			}
			d.send(wait())
			if n, rs := waitsLen(d.a), d.results(1); n != 1 || len(rs) != 1 {
				t.Fatalf("copy after the lease end: %d waits, %d results, want it parked and unanswered", n, len(rs))
			}
			if err := d.a.Out(req(9), hourLease()); err != nil {
				t.Fatal(err)
			}
			eventually(t, "the parked copy is served", func() bool { return len(d.results(1)) == 2 })
			if rs := d.results(1); !rs[1].Found || !rs[1].Tuple.Equal(req(9)) {
				t.Fatalf("parked copy answered %+v, want req(9)", rs[1])
			}
		}},
		{"answered, then accepted: silence, and nothing more taken", true, func(t *testing.T, d *dupRig) {
			d.send(take())
			first := d.results(1)
			if len(first) != 1 || !first[0].Found || first[0].HoldID == 0 {
				t.Fatalf("first copy answered %+v, want one found reply under a hold", first)
			}
			d.send(&wire.Message{Type: wire.TAccept, ID: 2, HoldID: first[0].HoldID})
			if tomb := countServed(d.a, func(f finished) bool { return f.kind == ansAccepted }); tomb != 1 {
				t.Fatalf("%d answered records without a reply after the accept, want the take's tombstone", tomb)
			}
			drops, n := d.met.Get(trace.CtrDedupDrops), d.a.LocalSpace().Count()
			d.send(take())
			if rs := d.results(1); len(rs) != 1 {
				t.Fatalf("z was sent %d results, want only the first copy's: %+v", len(rs), rs)
			}
			if got := d.met.Get(trace.CtrDedupDrops); got != drops+1 {
				t.Fatalf("%s = %d, want %d: the copy after the accept", trace.CtrDedupDrops, got, drops+1)
			}
			if got := d.a.LocalSpace().Count(); got != n {
				t.Fatalf("space count %d after the copy, was %d: the copy took a tuple", got, n)
			}
		}},
		{"cancelled: silence", true, func(t *testing.T, d *dupRig) {
			d.send(take())
			d.send(&wire.Message{Type: wire.TCancel, ID: 1})
			drops := d.met.Get(trace.CtrDedupDrops)
			d.send(take())
			if rs := d.results(1); len(rs) != 1 {
				t.Fatalf("z was sent %d results, want only the first copy's", len(rs))
			}
			if got := d.met.Get(trace.CtrDedupDrops); got != drops+1 {
				t.Fatalf("%s = %d, want %d", trace.CtrDedupDrops, got, drops+1)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDupRig(t)
			for k := int64(1); tc.seeded && k <= 2; k++ {
				if err := d.a.Out(req(k), hourLease()); err != nil {
					t.Fatal(err)
				}
			}
			before := d.a.LocalSpace().Count()
			tc.run(t, d)
			if n := d.a.LocalSpace().Count(); n < before-1 {
				t.Fatalf("space count %d, was %d: more than one tuple left it", n, before)
			}
		})
	}
}

// acceptGate holds an endpoint's first TAccept at the send until let is
// closed, and says on seen that it has one. It counts the TReleases the
// endpoint sends.
type acceptGate struct {
	transport.Endpoint
	seen, let chan struct{}
	releases  atomic.Int32
}

func newAcceptGate() *acceptGate {
	return &acceptGate{seen: make(chan struct{}, 1), let: make(chan struct{})}
}

func (g *acceptGate) Send(to wire.Addr, m *wire.Message) error {
	switch m.Type {
	case wire.TAccept:
		select {
		case g.seen <- struct{}{}:
		default:
		}
		<-g.let
	case wire.TRelease:
		g.releases.Add(1)
	}
	return g.Endpoint.Send(to, m)
}

// gatedTakePair is a wallPair whose b takes req(1) from a, its TAccept
// held at the send: it returns once a's pending hold is registered and b's
// accept is in flight, with the take's outcome to come on taken.
func gatedTakePair(t *testing.T) (a, b *Instance, gate *acceptGate, taken chan error) {
	t.Helper()
	gate = newAcceptGate()
	a, b = wallPair(t, nil, func(c *Config) {
		if c.Endpoint.Addr() == "b" {
			gate.Endpoint, c.Endpoint = c.Endpoint, gate
		}
	})
	if err := a.Out(req(1), nil); err != nil {
		t.Fatal(err)
	}
	taken = make(chan error, 1)
	go func() {
		_, ok, err := b.Inp(context.Background(), reqTmpl(), nil)
		if err == nil && !ok {
			err = errors.New("no match")
		}
		taken <- err
	}()
	select {
	case <-gate.seen:
	case err := <-taken:
		t.Fatalf("the take ended before its accept: %v", err)
	}
	return a, b, gate, taken
}

// fieldsOf returns the start of t's field array: the object that a
// reference to the tuple keeps alive.
func fieldsOf(t tuple.Tuple) *tuple.Field {
	return (*tuple.Field)(reflect.ValueOf(t).Field(0).UnsafePointer())
}

// TestAcceptedHoldNotRetained: a found take's request record keeps its
// reply only while the hold is pending. Once the accept has settled the
// hold, the record is an answered tombstone, and the pending hold (with
// the TAck it sent and the entry it held), the found reply and the taken
// tuple are all garbage while the record stands (DESIGN.md §7).
func TestAcceptedHoldNotRetained(t *testing.T) {
	a, _, gate, taken := gatedTakePair(t)
	var collected atomic.Int32
	a.mu.Lock()
	if len(a.holds) != 1 {
		a.mu.Unlock()
		t.Fatalf("%d pending holds at a under the gated accept, want 1", len(a.holds))
	}
	for _, ph := range a.holds {
		f := a.served.get(ph.key)
		if f == nil || f.kind != ansMsg || f.msg.HoldID != ph.id {
			a.mu.Unlock()
			t.Fatalf("the take's record under the gated accept is %+v, want answered with the found reply", f)
		}
		runtime.SetFinalizer(ph, func(*pendingHold) { collected.Add(1) })
		runtime.SetFinalizer(f.msg, func(*wire.Message) { collected.Add(1) })
		runtime.SetFinalizer(fieldsOf(f.msg.Tuple), func(*tuple.Field) { collected.Add(1) })
	}
	a.mu.Unlock()
	close(gate.let)
	if err := <-taken; err != nil {
		t.Fatalf("remote take: %v", err)
	}
	eventually(t, "the accept settled the hold", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.holds) == 0
	})
	tombstone := func(f finished) bool { return f.kind == ansAccepted }
	kept := countServed(a, func(f finished) bool { return f.msg != nil || f.tuple.Arity() != 0 }) +
		countRequests(a, func(e request) bool { return e.reply != nil })
	if n := countServed(a, tombstone); n != 1 || kept != 0 {
		t.Fatalf("%d answered tombstones and %d records keeping a reply at a, want the take's tombstone alone", n, kept)
	}
	for k := 0; k < 50 && collected.Load() < 3; k++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := collected.Load(); n != 3 {
		t.Fatalf("%d of the pending hold, the found reply and the tuple collected, want all 3", n)
	}
	if n := countServed(a, tombstone); n != 1 {
		t.Fatalf("the take's tombstone went with its reply: %d left", n)
	}
}

// TestLateDuplicateOfWonHold: a found result naming the hold a take won
// comes back late, as a retransmission's replay does. While the accept is
// pending at the requester the duplicate is dropped, since a release could
// overtake the accept. After the owner's ack it is released, and the
// owner, which acks only after it settled the hold, finds nothing to
// reinstate.
func TestLateDuplicateOfWonHold(t *testing.T) {
	a, b, gate, taken := gatedTakePair(t)
	a.mu.Lock()
	var hold uint64
	for id := range a.holds {
		hold = id
	}
	a.mu.Unlock()
	dup := func() *wire.Message {
		return &wire.Message{Type: wire.TResult, ID: 1 << 40, From: "a", Found: true, Tuple: req(1), HoldID: hold}
	}
	drops := b.Metrics().Get(trace.CtrDedupDrops)
	b.dispatch(dup())
	if got := b.Metrics().Get(trace.CtrDedupDrops); got != drops+1 || gate.releases.Load() != 0 {
		t.Fatalf("duplicate before the ack: %s %d → %d, %d releases sent; want it dropped and counted",
			trace.CtrDedupDrops, drops, got, gate.releases.Load())
	}
	close(gate.let)
	if err := <-taken; err != nil {
		t.Fatalf("remote take: %v", err)
	}
	eventually(t, "the owner's ack settled the accept", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.pendAccepts) == 0
	})
	n := a.LocalSpace().Count()
	b.dispatch(dup())
	if got := gate.releases.Load(); got != 1 {
		t.Fatalf("duplicate after the ack: %d releases sent, want 1", got)
	}
	// The rdp travels behind the release on the one link, so a has
	// handled the release by the time it answers.
	if _, ok, err := b.Rdp(context.Background(), reqTmpl(), nil); err != nil || ok {
		t.Fatalf("rdp after the release: ok %v, err %v; the accepted tuple came back", ok, err)
	}
	if got := a.LocalSpace().Count(); got != n {
		t.Fatalf("a's space count %d after the release, was %d", got, n)
	}
}
