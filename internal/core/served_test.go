package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"tiamat/lease"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/tuple"
	"tiamat/wire"
)

// sentFrames is an endpoint that keeps the encoding of every result and
// ack it sends to one peer.
type sentFrames struct {
	transport.Endpoint
	to     wire.Addr
	mu     sync.Mutex
	frames [][]byte
}

func (e *sentFrames) Send(to wire.Addr, m *wire.Message) error {
	if to == e.to && (m.Type == wire.TResult || m.Type == wire.TAck) {
		e.mu.Lock()
		e.frames = append(e.frames, wire.AppendEncode(nil, m))
		e.mu.Unlock()
	}
	return e.Endpoint.Send(to, m)
}

func (e *sentFrames) since(n int) [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]byte(nil), e.frames[n:]...)
}

func (e *sentFrames) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.frames)
}

// TestServedCacheReplayIdentity: a copy of a finished request is answered
// with a frame identical, byte for byte, to the one its first copy got,
// whichever way the record keeps the answer: by kind (a not-found, a found
// read, an OK ack, a refusing ack) or as the sent message (a take whose
// hold is pending, with and without a replica identity). A copy of an
// accepted take or of a cancelled request gets nothing and is counted.
func TestServedCacheReplayIdentity(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			frames := &sentFrames{to: "z"}
			d := newDupRigWith(t, func(c *Config) {
				c.Replicas = replicas
				frames.Endpoint, c.Endpoint = c.Endpoint, frames
			})
			for k := int64(1); k <= 3; k++ {
				if err := d.a.Out(req(k), hourLease()); err != nil {
					t.Fatal(err)
				}
			}
			cases := []struct {
				name  string
				frame func(id uint64) *wire.Message
				kind  answer
			}{
				{"not-found", func(id uint64) *wire.Message {
					m := opFrame("z", id, wire.OpRdp, time.Minute)
					m.Template = tuple.Tmpl(tuple.String("none"))
					return m
				}, ansNotFound},
				{"found read", func(id uint64) *wire.Message { return opFrame("z", id, wire.OpRdp, time.Minute) }, ansRead},
				{"found take, hold pending", func(id uint64) *wire.Message { return opFrame("z", id, wire.OpInp, time.Minute) }, ansMsg},
				{"out, ack OK", func(id uint64) *wire.Message {
					return &wire.Message{Type: wire.TOut, ID: id, TTL: time.Hour, Tuple: tuple.T(tuple.String("out"), tuple.Int(int64(id)))}
				}, ansAckOK},
				{"eval, refusing ack", func(id uint64) *wire.Message {
					return &wire.Message{Type: wire.TEval, ID: id, TTL: time.Hour, Func: "unregistered"}
				}, ansAckErr},
			}
			for k, tc := range cases {
				id := uint64(10 + k)
				n := frames.count()
				d.send(tc.frame(id))
				d.send(tc.frame(id))
				d.a.mu.Lock()
				f := d.a.served.get(waitKey{from: "z", id: id})
				kind, kept := ansNone, false
				if f != nil {
					kind, kept = f.kind, f.msg != nil
				}
				d.a.mu.Unlock()
				if kind != tc.kind || kept != (tc.kind == ansMsg) {
					t.Fatalf("%s: filed as kind %d keeping its message %v, want kind %d", tc.name, kind, kept, tc.kind)
				}
				d.send(tc.frame(id))
				got := frames.since(n)
				if len(got) != 3 {
					t.Fatalf("%s: a sent z %d frames for three copies, want 3", tc.name, len(got))
				}
				for c, g := range got[1:] {
					if !bytes.Equal(got[0], g) {
						t.Fatalf("%s: replay %d encodes to\n%x\nthe first reply to\n%x", tc.name, c+1, g, got[0])
					}
				}
				if tc.kind == ansMsg {
					m, err := wire.Decode(got[0])
					if err != nil {
						t.Fatal(err)
					}
					if ident := m.ReplSeq != 0; ident != (replicas == 2) {
						t.Fatalf("%s: reply %+v carries a replica identity %v at R=%d", tc.name, m, ident, replicas)
					}
					d.send(&wire.Message{Type: wire.TAccept, ID: 1 << 20, HoldID: m.HoldID})
				}
			}

			// The accepted take and a cancelled request: silence, counted.
			d.send(&wire.Message{Type: wire.TCancel, ID: 30})
			for _, id := range []uint64{12, 30} {
				drops, n := d.met.Get(trace.CtrDedupDrops), frames.count()
				d.send(opFrame("z", id, wire.OpInp, time.Minute))
				if got := frames.since(n); len(got) != 0 {
					t.Fatalf("copy of request %d answered with %d frames, want none", id, len(got))
				}
				if got := d.met.Get(trace.CtrDedupDrops); got != drops+1 {
					t.Fatalf("copy of request %d: %s %d → %d, want one drop", id, trace.CtrDedupDrops, drops, got)
				}
			}
		})
	}
}

// TestServedCacheFlatUnderChurn: a responder's finished records take a
// fixed amount of memory, however many requests it has served. Two peers'
// 200 000 nonblocking requests, misses and found reads, each admitted,
// served and filed as the governor files it, leave a ring and an index
// that never pass their caps, and a live heap the same after 100 000 and
// after 200 000 requests and within 1 MB of the idle node's.
func TestServedCacheFlatUnderChurn(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	if err := a.Out(req(1), hourLease()); err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	peers := [2]wire.Addr{"p", "q"}
	miss, hit := tuple.Tmpl(tuple.String("none"), tuple.FormalInt()), reqTmpl()
	m := &wire.Message{Type: wire.TOp, TTL: time.Minute}
	serve := func(id uint64) {
		m.ID, m.From = id, peers[id%2]
		m.Op, m.Template = wire.OpRdp, miss
		switch id % 4 {
		case 1:
			m.Template = hit
		case 2:
			m.Op = wire.OpInp
		}
		if _, execute := a.admit(m); !execute {
			t.Fatalf("request %d not admitted as new", id)
		}
		now := a.clk.Now()
		a.handleOp(m, now)
		a.finishRun(waitKey{from: m.From, id: id}, now)
	}
	churn := func(from, to uint64) {
		for id := from; id < to; id++ {
			serve(id)
			if id%1024 != 0 {
				continue
			}
			a.mu.Lock()
			ring, index := len(a.served.ring), len(a.served.index)
			a.mu.Unlock()
			if ring > servedCacheMax || index > 2*servedCacheMax {
				t.Fatalf("after %d requests: ring %d slots, index %d; caps %d and %d",
					id, ring, index, servedCacheMax, 2*servedCacheMax)
			}
		}
	}
	idle := liveHeap()
	churn(1, 100_000)
	at100k := liveHeap()
	churn(100_000, 200_001)
	at200k := liveHeap()
	if n := countServed(a, func(finished) bool { return true }); n != servedCacheMax {
		t.Fatalf("%d finished records kept, want the cap's %d", n, servedCacheMax)
	}
	if d := float64(at200k) - float64(at100k); d > 0.05*float64(at100k) || -d > 0.05*float64(at100k) {
		t.Fatalf("live heap %d B after 100 000 requests, %d B after 200 000: more than 5 %% apart", at100k, at200k)
	}
	if at200k > idle+1<<20 {
		t.Fatalf("live heap %d B after 200 000 requests, idle %d B: %d B more, want under 1 MB",
			at200k, idle, at200k-idle)
	}
}

// TestServedCacheMatchesModel drives the store with random adds and
// drops, time moving on, against a plain map of what was last filed under
// each key. Every record the index names is the map's, under the kind
// last filed and no older than dedupTTL at the last add, whose sweep
// would have evicted it; and every record of the map fewer than
// servedCacheMax-1 adds old and within dedupTTL is found, whatever was
// dropped meanwhile.
func TestServedCacheMatchesModel(t *testing.T) {
	type rec struct {
		at   time.Time
		kind answer
		seq  int // the add that filed it
	}
	var s servedStore
	model := map[waitKey]rec{}
	rnd := rand.New(rand.NewSource(1))
	now, swept, adds := epoch, epoch, 0
	for step := 0; step < 60_000; step++ {
		now = now.Add(time.Duration(rnd.Intn(2000)) * time.Microsecond)
		if rnd.Intn(5000) == 0 {
			now = now.Add(dedupTTL / 3)
		}
		k := waitKey{from: wire.Addr(fmt.Sprint("p", rnd.Intn(3))), id: uint64(rnd.Intn(3000))}
		if rnd.Intn(8) == 0 {
			s.drop(k)
			delete(model, k)
		} else {
			kind := answer(1 + rnd.Intn(int(ansCancelled)))
			s.add(finished{key: k, kind: kind}, now)
			adds++
			swept = now
			model[k] = rec{at: now, kind: kind, seq: adds}
		}
		if len(s.ring) > servedCacheMax || len(s.index) > 2*servedCacheMax {
			t.Fatalf("step %d: ring %d, index %d slots", step, len(s.ring), len(s.index))
		}
		if step%97 != 0 {
			continue
		}
		indexed := 0
		for _, v := range s.index {
			if v == 0 {
				continue
			}
			indexed++
			f := s.ring[v-1]
			r, ok := model[f.key]
			switch {
			case f.kind == ansNone:
				t.Fatalf("step %d: the index names vacated slot %d", step, v-1)
			case !ok || r.kind != f.kind:
				t.Fatalf("step %d: the store keeps %v as %d, the model %+v (kept %v)", step, f.key, f.kind, r, ok)
			case swept.Sub(r.at) > dedupTTL:
				t.Fatalf("step %d: %v kept past dedupTTL", step, f.key)
			}
		}
		found := 0
		for k, r := range model {
			if s.get(k) != nil {
				found++
			} else if adds-r.seq < servedCacheMax-1 && swept.Sub(r.at) <= dedupTTL {
				t.Fatalf("step %d: %v lost, %d adds old", step, k, adds-r.seq)
			}
		}
		if found != indexed {
			t.Fatalf("step %d: %d records found by key, %d indexed", step, found, indexed)
		}
	}
}

// TestServedCacheReplayBuildsItsReply: a copy of a finished not-found
// request is sent a reply rebuilt from the record's kind, the one object
// it costs. No record keeps a not-found's message, however new.
func TestServedCacheReplayBuildsItsReply(t *testing.T) {
	r := newRig(t, []wire.Addr{"a"}, nil)
	a := r.inst["a"]
	m := opFrame("p", 1, wire.OpRdp, time.Minute)
	a.mu.Lock()
	a.served.add(finishedAs(waitKey{from: "p", id: 1}, &wire.Message{Type: wire.TResult, ID: 1, From: a.Addr()}, a.Addr()), a.clk.Now())
	a.mu.Unlock()
	replay := func() {
		if reply, execute := a.admit(m); execute || reply == nil {
			t.Fatalf("copy admitted to run (%v) or answered %v, want the recorded not-found", execute, reply)
		}
	}
	if n := testing.AllocsPerRun(100, replay); n != 1 {
		t.Fatalf("a copy of a not-found record allocates %.0f objects, want its rebuilt reply alone", n)
	}
}

// TestAdmitRefusalIsFiled: a nonblocking op the lease manager refuses is
// answered a plain not-found and filed like a miss (DESIGN.md §6), so a
// second copy is replayed from the record, byte for byte, without asking
// the manager again; the walk's closing multicast skips a responder that
// answered. A blocking op's refusal is not filed, as its lease end's
// not-found is not: a copy is admitted afresh.
func TestAdmitRefusalIsFiled(t *testing.T) {
	frames := &sentFrames{to: "z"}
	d := newDupRigWith(t, func(c *Config) {
		c.Leases = lease.DefaultCapacity()
		c.Leases.MaxDuration = 0 // every admission refused
		frames.Endpoint, c.Endpoint = c.Endpoint, frames
	})
	if p := d.a.gov.pressure(); p != 0 {
		t.Fatalf("pressure %v, want 0: the refusals are the lease manager's", p)
	}
	for _, tc := range []struct {
		op      wire.OpCode
		refused uint64 // counted for two copies
		filed   bool
	}{{wire.OpRdp, 1, true}, {wire.OpIn, 2, false}} {
		id := uint64(tc.op)
		refused, n := d.a.LeaseManager().Stats().Refused, frames.count()
		d.send(opFrame("z", id, tc.op, time.Minute))
		d.send(opFrame("z", id, tc.op, time.Minute))
		got := frames.since(n)
		if len(got) != 2 || !bytes.Equal(got[0], got[1]) {
			t.Fatalf("%v: a sent z %d frames for two copies, want two identical", tc.op, len(got))
		}
		if m, err := wire.Decode(got[0]); err != nil || m.Type != wire.TResult || m.Found || m.Busy {
			t.Fatalf("%v: answered %+v (%v), want a plain not-found", tc.op, m, err)
		}
		if n := d.a.LeaseManager().Stats().Refused - refused; n != tc.refused {
			t.Fatalf("%v: %d refusals counted for two copies, want %d", tc.op, n, tc.refused)
		}
		filed := countServed(d.a, func(f finished) bool { return f.key.id == id && f.kind == ansNotFound }) == 1
		if filed != tc.filed {
			t.Fatalf("%v: refusal filed %v, want %v", tc.op, filed, tc.filed)
		}
	}
}
