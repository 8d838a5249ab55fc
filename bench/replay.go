package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/clock"
	"tiamat/internal/discovery"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/routing"
	"tiamat/space/persist"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/tuple"
	"tiamat/wire"
)

// The layer replay calls tuple, wire, lease, internal/store,
// space/persist, routing, internal/discovery and the raw transports
// directly, with the tuples, templates, frame shapes and resident count
// of the workload, and times each call. Together with the span medians of
// the traced run it fills the layer table: calls per op x ns per call per
// layer, against op_p50_us.

// layerRow is one line of the layer table.
type layerRow struct {
	Layer     string  `json:"layer"`
	What      string  `json:"what"`
	Calls     float64 `json:"calls_per_op"`
	NsPerCall float64 `json:"ns_per_call"`
	Us        float64 `json:"us_per_op"`
	// Source is "trace" for the segments of the median timed op of the
	// traced run and "replay" for direct calls. Replay rows happen inside
	// the trace rows: they split the spans by layer and are not added to
	// the spans' sum.
	Source string `json:"source"`
}

type replayer struct {
	w      *workload
	g      *gen
	budget time.Duration
	m      map[string]float64
}

// timeNs is the median time of one call of f, over batches.
func (r *replayer) timeNs(batch int, f func(i int)) float64 {
	return r.timeBatches(batch, f, nil)
}

// timeBatches times batches of calls of f until the budget is spent and
// returns the median ns per call. after runs untimed after each batch,
// to put back what the batch consumed.
func (r *replayer) timeBatches(batch int, f func(i int), after func(first, n int)) float64 {
	var per []float64
	deadline := time.Now().Add(r.budget)
	for n := 0; len(per) < 3 || (time.Now().Before(deadline) && len(per) < 2000); n += batch {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f(n + i)
		}
		per = append(per, float64(time.Since(start))/float64(batch))
		if after != nil {
			after(n, batch)
		}
	}
	return median(per)
}

// replayLayers fills res.Metrics with the replayed per-layer metrics and
// res.Layers with the layer table. The WAL files of the persist replay go
// under cfg.OutDir, inside the checkout.
func replayLayers(w *workload, cfg childConfig, res *childResult) error {
	r := &replayer{w: w, g: &gen{seed: cfg.Seed}, budget: 100 * time.Millisecond, m: res.Metrics}
	if cfg.Quick {
		r.budget = 2 * time.Millisecond
	}
	r.tupleAndWire()
	r.lease()
	localMiss := r.store()
	if err := r.persist(cfg.OutDir); err != nil {
		return err
	}
	if err := r.transports(); err != nil {
		return err
	}
	r.discoveryAndRouting()
	r.traceCounters()
	res.Layers = layerTable(w, res.Metrics, res.Path, localMiss)
	return nil
}

// key is the i'th key of the workload's key range: dense_mixed counts
// from 0, the others from the seed's key base, as the load does.
func (r *replayer) key(i int) int64 {
	if r.w.name == wDenseMixed {
		return int64(i)
	}
	return keyBase(r.g.seed) + int64(i)
}

func (r *replayer) exact(i int) tuple.Template { return exactTemplate(r.w.tag, r.key(i)) }

func (r *replayer) tuples(n int) []tuple.Tuple {
	scratch := make([]byte, r.w.payload)
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = r.g.tupleFor(r.w.tag, r.key(i), scratch)
	}
	return ts
}

// frames returns the TOp and the found TResult of the workload's timed
// op, as the instances build them.
func (r *replayer) frames() (op, result *wire.Message) {
	from := wire.Addr("n0")
	if r.w.transport == transportNetudp {
		from = "127.0.0.1:40000"
	}
	t := r.tuples(1)[0]
	op = &wire.Message{Type: wire.TOp, ID: 1 << 20, From: from, Op: wire.OpInp, Template: r.exact(0), TTL: 10 * time.Second}
	result = &wire.Message{Type: wire.TResult, ID: 1 << 20, From: from, Found: true, HoldID: 1 << 20, Tuple: t}
	switch r.w.name {
	case wDenseMixed:
		op.Op, result.HoldID = wire.OpRdp, 0
	case wFarmTCP:
		op.Op, op.Template = wire.OpIn, formalTemplate(r.w.tag)
	}
	return op, result
}

func (r *replayer) tupleAndWire() {
	ts := r.tuples(64)
	var buf []byte
	r.m["tuple.encode_ns"] = r.timeNs(256, func(i int) { buf = ts[i%64].AppendBinary(buf[:0]) })
	enc := ts[0].AppendBinary(nil)
	r.m["tuple.decode_ns"] = r.timeNs(256, func(int) { _, _, _ = tuple.DecodeTupleNoCopy(enc) })
	// One template against the bucket's tuples: 63 misses and a hit, the
	// mix a scan of a dense bucket sees.
	p := r.exact(0)
	hits := 0 // keeps the compiler from dropping the call
	r.m["tuple.match_ns"] = r.timeNs(256, func(i int) {
		if p.Matches(ts[i%64]) {
			hits++
		}
	})

	op, result := r.frames()
	wb := wire.GetBuf()
	defer wb.Release()
	r.m["wire.encode_op_ns"] = r.timeNs(256, func(int) { wb.B = wire.AppendEncode(wb.B[:0], op) })
	opFrame := wire.Encode(op)
	r.m["wire.decode_op_ns"] = r.timeNs(256, func(int) { _, _ = wire.DecodeNoCopy(opFrame) })
	r.m["wire.encode_result_ns"] = r.timeNs(256, func(int) { wb.B = wire.AppendEncode(wb.B[:0], result) })
	resFrame := wire.Encode(result)
	r.m["wire.decode_result_ns"] = r.timeNs(256, func(int) { _, _ = wire.DecodeNoCopy(resFrame) })
	r.m["wire.frame_bytes_op"] = float64(len(opFrame))
	r.m["wire.frame_bytes_result"] = float64(len(resFrame))
}

// lease times one grant and cancel on a manager that already holds the
// workload's resident leases, as the instance that stores them does.
func (r *replayer) lease() {
	mgr := lease.NewManager(benchCapacity, clock.Real{})
	defer mgr.Close()
	for i := 0; i < r.w.resident; i++ {
		_, _ = mgr.Grant(lease.OpOut, reqResident) // cannot be refused at this capacity
	}
	r.m["lease.grant_cancel_ns"] = r.timeNs(256, func(int) {
		if l, err := mgr.Grant(lease.OpInp, reqProbe); err == nil {
			l.Cancel()
		}
	})
}

// store times the space's operations at the workload's resident count.
// It returns the cost of a miss in an empty bucket, which is what the
// requester's local probe pays before it goes remote.
func (r *replayer) store() (localMissNs float64) {
	n := r.w.resident
	ts := r.tuples(n + 256)
	s := store.New()
	defer s.Close()
	for _, t := range ts[:n] {
		_, _ = s.Out(t, time.Time{})
	}
	ids := make([]uint64, 256)
	r.m["store.out_ns"] = r.timeBatches(256, func(i int) { ids[i%256], _ = s.Out(ts[n+i%256], time.Time{}) },
		func(int, int) {
			for _, id := range ids {
				s.Remove(id)
			}
		})
	r.m["store.rdp_hit_ns"] = r.timeNs(64, func(i int) { s.Rdp(r.exact(i % n)) })
	r.m["store.rdp_miss_ns"] = r.timeNs(64, func(i int) { s.Rdp(r.exact(n + 256 + i%n)) })
	// Takes empty the bucket they measure: small batches, each put back.
	batch := 32
	if n < batch {
		batch = n
	}
	putBack := func(first, cnt int) {
		for i := first; i < first+cnt; i++ {
			_, _ = s.Out(ts[i%n], time.Time{})
		}
	}
	r.m["store.inp_hit_ns"] = r.timeBatches(batch, func(i int) { s.Inp(r.exact(i % n)) }, putBack)
	r.m["store.hold_accept_ns"] = r.timeBatches(batch, func(i int) {
		if h, ok := s.Hold(r.exact(i % n)); ok {
			h.Accept()
		}
	}, putBack)
	// A registered in-waiter woken by the Out that satisfies it.
	r.m["store.wait_wake_ns"] = r.timeNs(64, func(i int) {
		w := s.Wait(r.exact(n+i%256), true)
		_, _ = s.Out(ts[n+i%256], time.Time{})
		<-w.Chan()
	})

	empty := store.New()
	defer empty.Close()
	return r.timeNs(256, func(i int) { empty.Inp(r.exact(i)) })
}

// persist times the durable space's Out under the two extreme fsync
// policies. It is a layer-level number only: no workload runs durable.
func (r *replayer) persist(tmp string) error {
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ts := r.tuples(64)
	run := func(name string, pol persist.SyncPolicy, batch int) (float64, float64, error) {
		met := &trace.Metrics{}
		sp, err := persist.OpenWith(filepath.Join(dir, name), store.New(), nil,
			persist.Options{Sync: pol, CompactAt: -1, Metrics: met})
		if err != nil {
			return 0, 0, err
		}
		outs := 0
		ns := r.timeNs(batch, func(i int) {
			_, _ = sp.Out(ts[i%64], time.Time{})
			outs++
		})
		syncs := float64(met.Get(trace.CtrWALSyncs))
		if err := sp.Close(); err != nil {
			return 0, 0, err
		}
		return ns, ratio(syncs, float64(outs)), nil
	}
	if r.m["persist.out_ns"], _, err = run("never.wal", persist.SyncNever, 64); err != nil {
		return err
	}
	r.m["persist.out_sync_ns"], r.m["persist.syncs_per_out"], err = run("always.wal", persist.SyncAlways, 4)
	return err
}

// pingPong measures the raw endpoints: an echo goroutine on b answers
// each frame from a with the result frame. It returns the median round
// trip with one frame in flight and the frames per second, both
// directions counted, with 16 in flight.
func (r *replayer) pingPong(a, b transport.Endpoint) (rttNs, pipelined float64) {
	op, result := r.frames()
	op.From, result.From = a.Addr(), b.Addr()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for m := range b.Recv() {
			_ = b.Send(m.From, result) // a failed send shows as a stalled ping below
		}
	}()
	recv := func() bool {
		select {
		case _, ok := <-a.Recv():
			return ok
		case <-time.After(2 * time.Second):
			return false
		}
	}
	lost := false
	rttNs = r.timeNs(16, func(int) {
		if lost || a.Send(b.Addr(), op) != nil || !recv() {
			lost = true
		}
	})

	// 16 senders, each released by any reply: 16 frames in flight.
	const inFlight = 16
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		replies atomic.Int64
		tokens  = make(chan struct{}, inFlight)
	)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if a.Send(b.Addr(), op) != nil {
					return
				}
				select {
				case <-tokens:
				case <-time.After(2 * time.Second):
					return
				}
			}
		}()
	}
	start := time.Now()
	for deadline := start.Add(2 * r.budget); !lost && time.Now().Before(deadline); {
		if !recv() {
			lost = true
			break
		}
		replies.Add(1)
		tokens <- struct{}{}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	// Release the senders, which may be parked on a token.
	for drained := false; !drained; {
		select {
		case tokens <- struct{}{}:
		default:
			drained = true
		}
	}
	wg.Wait()
	_ = a.Close()
	_ = b.Close()
	<-echoed
	if lost {
		return 0, 0
	}
	return rttNs, 2 * float64(replies.Load()) / elapsed.Seconds()
}

func (r *replayer) transports() error {
	net := memnet.New()
	a, err := net.Attach("a")
	if err != nil {
		return err
	}
	b, err := net.Attach("b")
	if err != nil {
		return err
	}
	net.ConnectAll()
	rtt, _ := r.pingPong(a, b)
	net.Close()
	r.m["transport.memnet_rtt_us"] = rtt / 1e3

	eps, err := newNetudpEndpoints(2, &trace.Metrics{})
	if err != nil {
		return err
	}
	rtt, piped := r.pingPong(eps[0], eps[1])
	r.m["transport.netudp_rtt_us"] = rtt / 1e3
	r.m["transport.netudp_pipelined_msgs_per_s"] = piped
	return nil
}

func (r *replayer) discoveryAndRouting() {
	peers := make([]wire.Addr, 0, r.w.nodes-1)
	for i := 1; i < r.w.nodes; i++ {
		peers = append(peers, wire.Addr(fmt.Sprintf("127.0.0.1:%d", 40000+i)))
	}
	list := discovery.NewResponderList(64, nil)
	for _, p := range peers {
		list.Observe(p)
	}
	var buf []wire.Addr
	r.m["discovery.snapshot_ns"] = r.timeNs(256, func(int) { buf = list.SnapshotAppend(buf[:0]) })
	r.m["discovery.promote_ns"] = r.timeNs(256, func(i int) { list.Promote(peers[i%len(peers)]) })
	ring := routing.BuildRing(append(peers, "127.0.0.1:40000"), nil)
	r.m["routing.place_ns"] = r.timeNs(256, func(int) { buf = ring.PlaceAppend(buf[:0], r.w.tag, 3, 2) })
}

func (r *replayer) traceCounters() {
	met := &trace.Metrics{}
	r.m["trace.inc_ns"] = r.timeNs(1024, func(int) { met.Inc(trace.CtrMsgsSent) })
	var stop atomic.Bool
	other := make(chan struct{})
	go func() {
		defer close(other)
		for !stop.Load() {
			met.Inc(trace.CtrBytesSent)
		}
	}()
	r.m["trace.inc_contended_ns"] = r.timeNs(1024, func(int) { met.Inc(trace.CtrMsgsSent) })
	stop.Store(true)
	<-other
}

// --- layer table -----------------------------------------------------------

// layerTable puts the median timed op, split along its blocking path by
// the traced run, on top of the replayed call costs that split those
// spans by layer.
func layerTable(w *workload, m map[string]float64, path []pathRow, localMissNs float64) []layerRow {
	var rows []layerRow
	for _, p := range path {
		rows = append(rows, layerRow{Layer: p.Layer, What: p.What, Calls: p.Calls, NsPerCall: ratio(p.Us*1e3, p.Calls), Us: p.Us, Source: "trace"})
	}
	call := func(layer, what string, calls, ns float64) {
		rows = append(rows, layerRow{Layer: layer, What: what, Calls: calls, NsPerCall: ns, Us: calls * ns / 1e3, Source: "replay"})
	}
	if len(path) == 0 {
		return rows
	}
	if w.name == wFarmTCP {
		// Per task: two Outs under a lease each, two waiters woken and
		// answered from a hold, two TResults. The TOp of a wait travels
		// before its task exists and is off the path.
		call("lease", "grant + cancel for each Out", 2, m["lease.grant_cancel_ns"])
		call("store", "wait woken by out", 2, m["store.wait_wake_ns"])
		call("store", "hold + accept", 2, m["store.hold_accept_ns"])
		call("wire", "encode + decode of TResult", 2, m["wire.encode_result_ns"]+m["wire.decode_result_ns"])
		return rows
	}
	// A remote probe: the requester contacts c responders in turn.
	c := path[segServe].Calls
	call("lease", "grant + cancel (requester, each responder)", 1+c, m["lease.grant_cancel_ns"])
	call("store", "requester's local probe (empty bucket)", 1, localMissNs)
	if w.name == wDenseMixed {
		// One scan per op: the second serve of a miss replays the cached
		// not-found and scans nothing.
		call("store", "rdp exact key at the resident count", 1, m["store.rdp_hit_ns"])
	} else {
		call("store", "miss at each responder passed", c-1, m["store.rdp_miss_ns"])
		call("store", "hold + accept at the holder", 1, m["store.hold_accept_ns"])
	}
	call("discovery", "responder snapshot + found-promotion", 1, m["discovery.snapshot_ns"]+m["discovery.promote_ns"])
	call("wire", "encode + decode of TOp and TResult", c,
		m["wire.encode_op_ns"]+m["wire.decode_op_ns"]+m["wire.encode_result_ns"]+m["wire.decode_result_ns"])
	return rows
}

// layerShares folds the table into one figure per layer: replay rows
// count for their own layer and are taken out of the span of the layer
// they run inside (wire inside transport, the rest inside core).
func layerShares(rows []layerRow) (shares map[string]float64, spans float64) {
	shares = make(map[string]float64)
	for _, r := range rows {
		shares[r.Layer] += r.Us
		if r.Source == "trace" {
			spans += r.Us
			continue
		}
		if r.Layer == "wire" {
			shares["transport"] -= r.Us
		} else {
			shares["core"] -= r.Us
		}
	}
	return shares, spans
}
