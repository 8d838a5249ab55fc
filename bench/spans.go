package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tiamat/transport"
	"tiamat/wire"
)

// Tracing is done from the benchmark's own files only: a root client.op
// span around each Instance call made by the load generator, and an
// Endpoint decorator that brackets every Send/Multicast and stamps every
// frame at Recv. From those events the analysis derives
//
//	transport.send    the inner Send call
//	transport.flight  send start -> frame received, matched on From/To/Type/ID
//	core.serve        TOp received -> TResult send starts, on the responder
//	core.settle       TResult received -> TAccept send starts, on the requester
//
// Spans of one operation share the requester's wire op ID; client.op is
// joined to it by the key in the TOp template or, for formal templates,
// in the TResult tuple.

type evKind uint8

const (
	evSend evKind = iota + 1
	evMulticast
	evRecv
	evClient
)

// Client op codes, carried in event.typ of evClient events.
const (
	opOut uint8 = iota + 1
	opInp
	opRdp
	opIn
)

var clientOpNames = map[uint8]string{opOut: "out", opInp: "inp", opRdp: "rdp", opIn: "in"}

type event struct {
	t0, t1 int64  // ns since the recorder's epoch; t0 == t1 for evRecv
	id     uint64 // wire message ID
	hold   uint64 // HoldID, where the frame carries one
	key    int64  // tuple or template key, where there is one
	node   uint8  // node that recorded the event
	peer   uint8  // destination of a send, source of a receive
	typ    uint8  // wire.Type, or a client op code
	kind   evKind
	hasKey bool
}

const (
	chunkEvents = 1 << 14
	// maxEvents bounds the memory of a traced run (56 B per event).
	// Recording stops when it is reached; the medians then come from
	// the first part of the window and the drop count is reported.
	maxEvents = 1 << 20
)

type recShard struct {
	mu     sync.Mutex
	chunks [][]event
}

type recorder struct {
	epoch   time.Time
	nodes   map[wire.Addr]uint8
	names   []wire.Addr
	on      atomic.Bool
	count   atomic.Int64
	dropped atomic.Int64
	shards  []recShard
	// sent counts frames handed to Send by wire type, over the whole
	// run; the window's share is a snapshot difference.
	sent [16]atomic.Int64
	// The open loop's schedule, set by the farm workload: the task with
	// key dueBase+i is due dueEpochNs+i*dueIntervalNs after the epoch.
	dueBase, dueEpochNs, dueIntervalNs int64
}

func newRecorder(addrs []wire.Addr) *recorder {
	r := &recorder{epoch: time.Now(), nodes: make(map[wire.Addr]uint8), names: addrs, shards: make([]recShard, len(addrs))}
	for i, a := range addrs {
		r.nodes[a] = uint8(i)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(e event) {
	if !r.on.Load() {
		return
	}
	if r.count.Add(1) > maxEvents {
		r.dropped.Add(1)
		return
	}
	sh := &r.shards[e.node]
	sh.mu.Lock()
	if n := len(sh.chunks); n == 0 || len(sh.chunks[n-1]) == chunkEvents {
		sh.chunks = append(sh.chunks, make([]event, 0, chunkEvents))
	}
	last := &sh.chunks[len(sh.chunks)-1]
	*last = append(*last, e)
	sh.mu.Unlock()
}

// clientOp records the root span of one Instance call.
func (r *recorder) clientOp(node uint8, code uint8, key int64, hasKey bool, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(event{kind: evClient, node: node, typ: code, key: key, hasKey: hasKey,
		t0: int64(start.Sub(r.epoch)), t1: int64(end.Sub(r.epoch))})
}

func (r *recorder) sentSnapshot() [16]int64 {
	var s [16]int64
	for i := range s {
		s[i] = r.sent[i].Load()
	}
	return s
}

// frameEvent fills the frame-derived fields of an event.
func (r *recorder) frameEvent(kind evKind, node uint8, peer wire.Addr, m *wire.Message) event {
	e := event{kind: kind, node: node, peer: r.nodes[peer], typ: uint8(m.Type), id: m.ID, hold: m.HoldID}
	switch m.Type {
	case wire.TOp:
		if f, err := m.Template.Field(1); err == nil {
			e.key, e.hasKey = f.IntValue()
		}
	case wire.TResult:
		if m.Found {
			if k, err := m.Tuple.IntAt(1); err == nil {
				e.key, e.hasKey = k, true
			}
		}
	}
	return e
}

// tracedEndpoint decorates a transport.Endpoint. It is handed to the
// instance as Config.Endpoint, so the program under test is unchanged.
type tracedEndpoint struct {
	inner transport.Endpoint
	rec   *recorder
	node  uint8
	// out mirrors the inner inbox, which both transports size at 4096,
	// so the decorator adds a hop but no new drop point.
	out  chan *wire.Message
	done chan struct{}
}

func newTracedEndpoint(inner transport.Endpoint, rec *recorder) *tracedEndpoint {
	e := &tracedEndpoint{inner: inner, rec: rec, node: rec.nodes[inner.Addr()],
		out: make(chan *wire.Message, 4096), done: make(chan struct{})}
	go e.pump()
	return e
}

// pump stamps each inbound frame and forwards it. It ends when the inner
// endpoint closes its inbox; Close waits for it.
func (e *tracedEndpoint) pump() {
	defer close(e.done)
	defer close(e.out)
	for m := range e.inner.Recv() {
		if e.rec.on.Load() {
			ev := e.rec.frameEvent(evRecv, e.node, m.From, m)
			ev.t0 = e.rec.now()
			ev.t1 = ev.t0
			e.rec.add(ev)
			// A coalesced ack settles several accepts: one receive per ID.
			for _, id := range m.AckIDs {
				ev.id = id
				e.rec.add(ev)
			}
		}
		e.out <- m
	}
}

func (e *tracedEndpoint) Addr() wire.Addr            { return e.inner.Addr() }
func (e *tracedEndpoint) Recv() <-chan *wire.Message { return e.out }

func (e *tracedEndpoint) Send(to wire.Addr, m *wire.Message) error {
	if int(m.Type) < len(e.rec.sent) {
		e.rec.sent[m.Type].Add(1)
	}
	if !e.rec.on.Load() {
		return e.inner.Send(to, m)
	}
	ev := e.rec.frameEvent(evSend, e.node, to, m)
	ev.t0 = e.rec.now()
	err := e.inner.Send(to, m)
	ev.t1 = e.rec.now()
	e.rec.add(ev)
	return err
}

func (e *tracedEndpoint) Multicast(m *wire.Message) (int, error) {
	if !e.rec.on.Load() {
		return e.inner.Multicast(m)
	}
	ev := e.rec.frameEvent(evMulticast, e.node, e.inner.Addr(), m)
	ev.t0 = e.rec.now()
	n, err := e.inner.Multicast(m)
	ev.t1 = e.rec.now()
	e.rec.add(ev)
	return n, err
}

func (e *tracedEndpoint) Close() error {
	err := e.inner.Close()
	<-e.done
	return err
}

// SetAckGate forwards the instance's per-destination ack-coalescing gate
// to the transport, which is where coalescing happens.
func (e *tracedEndpoint) SetAckGate(gate func(wire.Addr) bool) {
	if g, ok := e.inner.(interface{ SetAckGate(func(wire.Addr) bool) }); ok {
		g.SetAckGate(gate)
	}
}

// --- analysis --------------------------------------------------------------

type span struct {
	Name   string `json:"span"`
	Op     string `json:"op,omitempty"` // requester node / wire op ID
	Node   string `json:"node"`
	Peer   string `json:"peer,omitempty"`
	Frame  string `json:"frame,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type opKey struct {
	node uint8 // requester
	id   uint64
}

type frameKey struct {
	from, to uint8
	typ      uint8
	id       uint64
}

type holdKey struct {
	owner uint8
	hold  uint64
}

type nodeKey struct {
	node uint8
	key  int64
}

// Span categories, for splitting a timed op's duration.
const (
	catSend uint8 = iota
	catFlight
	catServe
	catSettle
)

type ival struct {
	a, b int64
	cat  uint8
}

// pathRow is one segment of the blocking path of the timed op: the mean
// over the ops whose duration lies in the 45th..55th percentile band, so
// the rows add up to the band's mean duration, which is the median op.
type pathRow struct {
	Layer string  `json:"layer"`
	What  string  `json:"what"`
	Calls float64 `json:"calls_per_op"`
	Us    float64 `json:"us_per_op"`
}

// spanReport is what a traced run learns from its spans.
type spanReport struct {
	// MedianUs holds, by per-layer metric name, the median over every
	// span of the kind in the window; Counts how many there were.
	MedianUs map[string]float64
	Counts   map[string]int
	// Path is the median timed op split along its blocking path, PathUs
	// its duration and PathOps the number of ops averaged.
	Path    []pathRow
	PathUs  float64
	PathOps int
	spans   []span
}

// each calls f for every recorded event of one kind, node by node and in
// time order within a node.
func (r *recorder) each(kind evKind, f func(e *event)) {
	for s := range r.shards {
		for _, ch := range r.shards[s].chunks {
			for i := range ch {
				if ch[i].kind == kind {
					f(&ch[i])
				}
			}
		}
	}
}

// maxTracedOps bounds the trace file: the spans of the first ops seen are
// written, every span counts toward the medians.
const maxTracedOps = 5000

// analyze derives spans from the recorded events. farm selects the
// open-loop path (task due -> done collected) for the path table; the
// other workloads' timed op is one Instance call.
func (r *recorder) analyze(farm bool) *spanReport {
	name := func(n uint8) string { return string(r.names[n]) }
	rep := &spanReport{Counts: make(map[string]int)}

	// Sends, in per-node time order, indexed for the matching below.
	sends := make(map[frameKey][]*event)
	mcasts := make(map[frameKey][]*event) // to is unused
	accepts := make(map[holdKey]*event)   // first TAccept send per hold
	ackOp := make(map[opKey]holdKey)      // (requester, ack ID) -> hold
	var sendNs []float64
	r.each(evSend, func(e *event) {
		k := frameKey{e.node, e.peer, e.typ, e.id}
		sends[k] = append(sends[k], e)
		sendNs = append(sendNs, float64(e.t1-e.t0))
		if wire.Type(e.typ) == wire.TAccept {
			hk := holdKey{e.peer, e.hold}
			if accepts[hk] == nil {
				accepts[hk] = e
			}
			ackOp[opKey{e.node, e.id}] = hk
		}
	})
	r.each(evMulticast, func(e *event) {
		k := frameKey{from: e.node, typ: e.typ, id: e.id}
		mcasts[k] = append(mcasts[k], e)
		sendNs = append(sendNs, float64(e.t1-e.t0))
	})

	// Which op does a frame belong to? TOp/TResult carry the op ID;
	// TAccept is tied to it by the hold its TResult named, TAck by the
	// accept's own ID.
	holdOp := make(map[holdKey]opKey)
	r.each(evRecv, func(e *event) {
		if wire.Type(e.typ) == wire.TResult && e.hold != 0 {
			holdOp[holdKey{e.peer, e.hold}] = opKey{e.node, e.id}
		}
	})
	opOf := func(from, to uint8, typ uint8, id, hold uint64) (opKey, bool) {
		switch wire.Type(typ) {
		case wire.TOp:
			return opKey{from, id}, true
		case wire.TResult:
			return opKey{to, id}, true
		case wire.TAccept:
			k, ok := holdOp[holdKey{to, hold}]
			return k, ok
		case wire.TAck:
			if hk, ok := ackOp[opKey{to, id}]; ok {
				k, ok := holdOp[hk]
				return k, ok
			}
		}
		return opKey{}, false
	}

	// Every op keeps the intervals its children cover, for self time;
	// only the first maxTracedOps ops seen keep the spans themselves.
	cover := make(map[opKey][]ival)
	detail := make(map[opKey][]span)
	addChild := func(k opKey, ok bool, cat uint8, s span) {
		if !ok {
			return
		}
		cover[k] = append(cover[k], ival{s.Start, s.End, cat})
		if d, seen := detail[k]; seen || len(detail) < maxTracedOps {
			s.Op = fmt.Sprintf("%s/%d", name(k.node), k.id)
			detail[k] = append(d, s)
		}
	}

	var flightNs, serveNs, settleNs []float64
	matched := make(map[frameKey]int) // sends of a frame already paired with a receive
	r.each(evRecv, func(e *event) {
		typ := wire.Type(e.typ)
		// transport.flight: the earliest unmatched send of this frame
		// (a retransmission repeats From/To/Type/ID).
		k := frameKey{e.peer, e.node, e.typ, e.id}
		var snd *event
		if q := sends[k]; matched[k] < len(q) && q[matched[k]].t0 <= e.t0 {
			snd = q[matched[k]]
			matched[k]++
		} else if q := mcasts[frameKey{from: e.peer, typ: e.typ, id: e.id}]; len(q) > 0 && q[0].t0 <= e.t0 {
			snd = q[0] // one multicast reaches several receivers
		}
		if snd != nil {
			flightNs = append(flightNs, float64(e.t0-snd.t0))
			op, ok := opOf(e.peer, e.node, e.typ, e.id, e.hold)
			fr := typ.String()
			addChild(op, ok, catSend, span{Name: "transport.send", Node: name(snd.node), Peer: name(e.node), Frame: fr, Parent: "transport.flight", Start: snd.t0, End: snd.t1})
			addChild(op, ok, catFlight, span{Name: "transport.flight", Node: name(snd.node), Peer: name(e.node), Frame: fr, Parent: flightParent(typ), Start: snd.t0, End: e.t0})
		}
		switch typ {
		case wire.TOp:
			// core.serve: until this node starts sending the reply.
			rk := frameKey{e.node, e.peer, uint8(wire.TResult), e.id}
			for _, rs := range sends[rk] {
				if rs.t0 >= e.t0 {
					serveNs = append(serveNs, float64(rs.t0-e.t0))
					addChild(opKey{e.peer, e.id}, true, catServe, span{Name: "core.serve", Node: name(e.node), Peer: name(e.peer), Parent: "transport.flight", Start: e.t0, End: rs.t0})
					break
				}
			}
		case wire.TResult:
			// core.settle: until this node starts sending the accept.
			if a := accepts[holdKey{e.peer, e.hold}]; e.hold != 0 && a != nil && a.node == e.node && a.t0 >= e.t0 {
				settleNs = append(settleNs, float64(a.t0-e.t0))
				addChild(opKey{e.node, e.id}, true, catSettle, span{Name: "core.settle", Node: name(e.node), Peer: name(e.peer), Parent: "transport.flight", Start: e.t0, End: a.t0})
			}
		}
	})

	// Join client.op to its wire op: the TOp this node sent with the same
	// key, or the found TResult it received with it, inside the call.
	type cand struct {
		t    int64
		op   opKey
		used bool
	}
	byKey := make(map[nodeKey][]*cand)
	r.each(evSend, func(e *event) {
		if wire.Type(e.typ) == wire.TOp && e.hasKey {
			byKey[nodeKey{e.node, e.key}] = append(byKey[nodeKey{e.node, e.key}], &cand{t: e.t0, op: opKey{e.node, e.id}})
		}
	})
	r.each(evRecv, func(e *event) {
		if wire.Type(e.typ) == wire.TResult && e.hasKey {
			byKey[nodeKey{e.node, e.key}] = append(byKey[nodeKey{e.node, e.key}], &cand{t: e.t0, op: opKey{e.node, e.id}})
		}
	})
	var (
		selfNs, outNs []float64
		paths         []opPath
		clientOps     int
	)
	r.each(evClient, func(e *event) {
		clientOps++
		root := span{Name: "client.op", Node: name(e.node), Frame: clientOpNames[e.typ], Start: e.t0, End: e.t1}
		if e.typ == opOut {
			outNs = append(outNs, float64(e.t1-e.t0))
			return
		}
		if !e.hasKey {
			return
		}
		for _, c := range byKey[nodeKey{e.node, e.key}] {
			if c.used || c.t < e.t0 || c.t > e.t1 {
				continue
			}
			// A TOp send and its TResult name the same op: use it once.
			for _, d := range byKey[nodeKey{e.node, e.key}] {
				if d.op == c.op {
					d.used = true
				}
			}
			p := splitOp(cover[c.op], e.t0, e.t1)
			paths = append(paths, p)
			selfNs = append(selfNs, float64(p.self))
			if kids, ok := detail[c.op]; ok {
				root.Op = kids[0].Op
				rep.spans = append(rep.spans, root)
				rep.spans = append(rep.spans, kids...)
			}
			break
		}
	})

	rep.MedianUs = map[string]float64{
		"transport.send_us":      median(sendNs) / 1e3,
		"transport.flight_us":    median(flightNs) / 1e3,
		"core.serve_us":          median(serveNs) / 1e3,
		"core.settle_us":         median(settleNs) / 1e3,
		"core.requester_self_us": median(selfNs) / 1e3,
		"core.local_out_us":      median(outNs) / 1e3,
	}
	rep.Counts["transport.send"] = len(sendNs)
	rep.Counts["transport.flight"] = len(flightNs)
	rep.Counts["core.serve"] = len(serveNs)
	rep.Counts["core.settle"] = len(settleNs)
	rep.Counts["client.op"] = clientOps
	rep.Counts["client.op joined"] = len(paths)
	rep.Counts["events dropped"] = int(r.dropped.Load())
	if farm {
		paths = r.farmPaths()
	}
	rep.Path, rep.PathUs, rep.PathOps = medianPath(paths, farm)
	return rep
}

func flightParent(t wire.Type) string {
	switch t {
	case wire.TOp:
		return "client.op"
	case wire.TResult:
		return "core.serve"
	case wire.TAccept:
		return "core.settle"
	}
	return ""
}

// covered is the length of [from, to] covered by the union of those
// spans that keep selects.
func covered(spans []ival, from, to int64, keep func(cat uint8) bool) int64 {
	ivs := make([]ival, 0, len(spans))
	for _, s := range spans {
		if !keep(s.cat) {
			continue
		}
		if s.a < from {
			s.a = from
		}
		if s.b > to {
			s.b = to
		}
		if s.b > s.a {
			ivs = append(ivs, s)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := from
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}

// opPath is one timed op split along its blocking path. seg holds the
// time of each segment, n how many spans of that kind it counts.
type opPath struct {
	dur, self int64
	seg       [6]int64
	n         [6]float64
}

// Segments of a remote probe.
const (
	segSelf = iota
	segTransport
	segServe
	segSettle
)

// splitOp splits the call [t0, t1] of one remote probe: time inside a
// core.serve or core.settle span is the core's, the rest of the time
// covered by a send or a flight is the transport's, and what no child
// covers is the requester's own.
func splitOp(kids []ival, t0, t1 int64) opPath {
	is := func(cats ...uint8) func(uint8) bool {
		return func(c uint8) bool {
			for _, x := range cats {
				if c == x {
					return true
				}
			}
			return false
		}
	}
	all := covered(kids, t0, t1, func(uint8) bool { return true })
	serve := covered(kids, t0, t1, is(catServe))
	settle := covered(kids, t0, t1, is(catSettle))
	core := covered(kids, t0, t1, is(catServe, catSettle))
	p := opPath{dur: t1 - t0, self: t1 - t0 - all}
	p.seg[segSelf], p.n[segSelf] = p.self, 1
	p.seg[segTransport] = all - core
	p.seg[segServe], p.seg[segSettle] = serve, settle
	for _, k := range kids {
		if k.b <= t0 || k.a >= t1 {
			continue
		}
		switch k.cat {
		case catFlight:
			p.n[segTransport]++
		case catServe:
			p.n[segServe]++
		case catSettle:
			p.n[segSettle]++
		}
	}
	return p
}

var probeSegments = []pathRow{
	segSelf:      {Layer: "core", What: "requester self: client.op minus its children"},
	segTransport: {Layer: "transport", What: "sends and flights of the op's frames"},
	segServe:     {Layer: "core", What: "serve: TOp received -> TResult send starts"},
	segSettle:    {Layer: "core", What: "settle: TResult received -> TAccept send starts"},
}

// Segments of a farm task, due -> collected.
const (
	farmPacing = iota
	farmLocalOut
	farmWake
	farmFlight
	farmSettle
	farmCheck
)

var farmSegments = []pathRow{
	farmPacing:   {Layer: "bench", What: "pacing lag: task due -> Out starts"},
	farmLocalOut: {Layer: "core", What: "local Out of task and of done"},
	farmWake:     {Layer: "core", What: "waiter woken: Out returns -> TResult send starts"},
	farmFlight:   {Layer: "transport", What: "flight of the two TResults"},
	farmSettle:   {Layer: "core", What: "settle: TResult received -> In returns"},
	farmCheck:    {Layer: "bench", What: "worker checks the task, builds done"},
}

// farmPaths follows each task by its key through the events: master Out,
// TResult to the worker, worker In returns, worker Out, TResult to the
// collector, collector In returns. Tasks missing an event (recorded
// outside the window) are skipped.
func (r *recorder) farmPaths() []opPath {
	outs := make(map[nodeKey]*event)
	ins := make(map[nodeKey]*event)
	resSend := make(map[nodeKey]*event)
	resRecv := make(map[nodeKey]*event)
	r.each(evClient, func(e *event) {
		switch {
		case e.typ == opOut:
			outs[nodeKey{e.node, e.key}] = e
		case e.typ == opIn && e.hasKey:
			ins[nodeKey{e.node, e.key}] = e
		}
	})
	r.each(evSend, func(e *event) {
		if wire.Type(e.typ) == wire.TResult && e.hasKey {
			resSend[nodeKey{e.node, e.key}] = e
		}
	})
	r.each(evRecv, func(e *event) {
		if wire.Type(e.typ) == wire.TResult && e.hasKey {
			resRecv[nodeKey{e.node, e.key}] = e
		}
	})
	const master, peer = 0, 1
	var paths []opPath
	for k, o0 := range outs {
		if k.node != master {
			continue
		}
		key := k.key
		s0, r1, i1 := resSend[nodeKey{master, key}], resRecv[nodeKey{peer, key}], ins[nodeKey{peer, key}]
		o1, s1, r0, i0 := outs[nodeKey{peer, key}], resSend[nodeKey{peer, key}], resRecv[nodeKey{master, key}], ins[nodeKey{master, key}]
		if s0 == nil || r1 == nil || i1 == nil || o1 == nil || s1 == nil || r0 == nil || i0 == nil {
			continue
		}
		due := r.dueEpochNs + (key-r.dueBase)*r.dueIntervalNs
		// The chain of instants; a stage that overlaps the one before it
		// (a waiter can start sending before Out has returned) gets no
		// time of its own, so the segments always add up to the total.
		points := []struct {
			t   int64
			seg int
		}{
			{o0.t0, farmPacing}, {o0.t1, farmLocalOut}, {s0.t0, farmWake}, {r1.t0, farmFlight}, {i1.t1, farmSettle},
			{o1.t0, farmCheck}, {o1.t1, farmLocalOut}, {s1.t0, farmWake}, {r0.t0, farmFlight}, {i0.t1, farmSettle},
		}
		var p opPath
		at := due
		for _, pt := range points {
			if pt.t > at {
				p.seg[pt.seg] += pt.t - at
				at = pt.t
			}
			p.n[pt.seg]++
		}
		p.dur = at - due
		paths = append(paths, p)
	}
	return paths
}

// medianPath averages the segments of the ops whose duration lies in the
// 45th..55th percentile band.
func medianPath(paths []opPath, farm bool) ([]pathRow, float64, int) {
	if len(paths) == 0 {
		return nil, 0, 0
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].dur < paths[j].dur })
	lo, hi := len(paths)*45/100, len(paths)*55/100+1
	if hi > len(paths) {
		hi = len(paths)
	}
	band := paths[lo:hi]
	rows := append([]pathRow(nil), probeSegments...)
	if farm {
		rows = append([]pathRow(nil), farmSegments...)
	}
	var dur float64
	for _, p := range band {
		dur += float64(p.dur)
		for s := range rows {
			rows[s].Us += float64(p.seg[s])
			rows[s].Calls += p.n[s]
		}
	}
	n := float64(len(band))
	for s := range rows {
		rows[s].Us /= n * 1e3
		rows[s].Calls /= n
	}
	return rows, dur / n / 1e3, len(band)
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
