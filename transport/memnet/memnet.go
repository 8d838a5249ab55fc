// Package memnet is the simulated network substrate used by the test
// suite and the experiment harness. It models exactly what the paper's
// pervasive environment provides: a mutable, symmetric, non-transitive
// visibility relation between instances (paper Figure 1), multicast that
// reaches only currently visible instances, node departure/arrival
// (churn), and message/byte accounting.
//
// Beyond plain loss and latency, the network exposes a full
// fault-injection surface (Faults): per-message duplication, reordering,
// payload corruption, and latency jitter, each settable globally or per
// visibility edge. Chaos tests drive these knobs to verify the protocol's
// at-least-once + idempotent-handler delivery semantics.
//
// Mobility is scripted two ways: directly (SetVisible, Partition, Churn,
// and the asymmetric SetVisibleOneWay for one-way radio links) or on a
// schedule (ScheduleVisible, SchedulePartition, ScheduleConnectAll),
// with the timers driven by the network clock so a virtual clock replays
// the same visibility trace deterministically. Delivery models radio
// propagation: a frame still in flight (latency or reorder hold-back)
// when its edge goes invisible is dropped, never delivered stale.
package memnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tiamat/clock"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/wire"
)

// inboxSize bounds each node's receive queue; overflow counts as a drop,
// mirroring a saturated radio.
const inboxSize = 4096

// Faults describes the failure behaviour injected on a link: independent
// per-message probabilities plus delivery timing. The zero value is a
// perfect link (synchronous, lossless delivery).
type Faults struct {
	// Loss is the independent per-message drop probability.
	Loss float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Reorder is the probability a message is held back and delivered
	// after a subsequently sent message (or after a short flush delay if
	// no later traffic arrives).
	Reorder float64
	// Corrupt is the probability a random bit of the encoded frame is
	// flipped in transit. Receivers detect this via the wire checksum and
	// drop the frame, so corruption degrades to loss — but exercises the
	// validation path.
	Corrupt float64
	// Latency is the fixed one-way delivery latency.
	Latency time.Duration
	// Jitter adds a uniform random [0,Jitter) to each delivery.
	Jitter time.Duration
}

// Limp is a gray-failure injection: extra one-way delivery latency that
// climbs linearly from zero to Extra over Ramp, starting when the limp
// is set. Ramp 0 applies the full Extra immediately. A limping link
// drops nothing — it just gets slower and slower, which is exactly the
// failure mode timeout-based detectors miss.
type Limp struct {
	Extra time.Duration
	Ramp  time.Duration
}

// limpState is an active limp and when its ramp began.
type limpState struct {
	l     Limp
	start time.Time
}

// extraAt returns the ramped extra latency at now.
func (s limpState) extraAt(now time.Time) time.Duration {
	if s.l.Extra <= 0 {
		return 0
	}
	if s.l.Ramp <= 0 {
		return s.l.Extra
	}
	el := now.Sub(s.start)
	if el >= s.l.Ramp {
		return s.l.Extra
	}
	if el <= 0 {
		return 0
	}
	return time.Duration(float64(s.l.Extra) * float64(el) / float64(s.l.Ramp))
}

// Network is a simulated broadcast domain.
type Network struct {
	clk clock.Clock
	met *trace.Metrics

	mu         sync.Mutex
	rng        *rand.Rand
	nodes      map[wire.Addr]*node
	vis        map[dedge]bool
	faults     Faults
	edgeFaults map[edge]Faults
	nodeLimps  map[wire.Addr]limpState
	edgeLimps  map[edge]limpState
	closed     bool
}

// edge is an unordered node pair, used for per-edge fault plans (faults
// apply to the link, whichever way a frame crosses it).
type edge struct{ a, b wire.Addr }

func mkEdge(a, b wire.Addr) edge {
	if b < a {
		a, b = b, a
	}
	return edge{a, b}
}

// dedge is a directed visibility edge: from can transmit to to. The
// symmetric API (SetVisible &c.) always flips both directions together;
// SetVisibleOneWay models asymmetric radio links.
type dedge struct{ from, to wire.Addr }

type node struct {
	net    *Network
	addr   wire.Addr
	inbox  chan *wire.Message
	held   []heldFrame // reorder holdback, flushed behind later traffic
	closed bool
}

// heldFrame is a frame parked by reorder injection. The source address
// rides along so the flush can drop frames whose edge has since gone
// invisible instead of delivering them stale.
type heldFrame struct {
	from wire.Addr
	data []byte
	lat  time.Duration
}

var _ transport.Endpoint = (*node)(nil)

// Option configures a Network.
type Option func(*Network)

// WithClock sets the time source used for latency delivery.
func WithClock(c clock.Clock) Option { return func(n *Network) { n.clk = c } }

// WithMetrics attaches a metrics registry.
func WithMetrics(m *trace.Metrics) Option { return func(n *Network) { n.met = m } }

// WithLatency sets a fixed one-way delivery latency (default 0:
// synchronous delivery).
func WithLatency(d time.Duration) Option { return func(n *Network) { n.faults.Latency = d } }

// WithLoss sets an independent per-message drop probability.
func WithLoss(p float64) Option { return func(n *Network) { n.faults.Loss = p } }

// WithFaults sets the whole default fault plan.
func WithFaults(f Faults) Option { return func(n *Network) { n.faults = f } }

// WithSeed seeds the loss/jitter PRNG (default 1).
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// New returns an empty network.
func New(opts ...Option) *Network {
	n := &Network{
		clk:        clock.Real{},
		met:        &trace.Metrics{},
		rng:        rand.New(rand.NewSource(1)),
		nodes:      make(map[wire.Addr]*node),
		vis:        make(map[dedge]bool),
		edgeFaults: make(map[edge]Faults),
		nodeLimps:  make(map[wire.Addr]limpState),
		edgeLimps:  make(map[edge]limpState),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Metrics returns the network's metrics registry.
func (n *Network) Metrics() *trace.Metrics { return n.met }

// Attach creates an endpoint with the given address. Attaching an address
// twice is an error (the first endpoint must Close first).
func (n *Network) Attach(addr wire.Addr) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("memnet: address %q already attached", addr)
	}
	nd := &node{
		net:   n,
		addr:  addr,
		inbox: make(chan *wire.Message, inboxSize),
	}
	n.nodes[addr] = nd
	return nd, nil
}

// SetVisible makes a and b mutually visible (or not). Visibility set
// this way is symmetric but deliberately not transitive (paper
// Figure 1c); SetVisibleOneWay scripts asymmetric links.
func (n *Network) SetVisible(a, b wire.Addr, visible bool) {
	if a == b {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setDirLocked(a, b, visible)
	n.setDirLocked(b, a, visible)
}

// SetVisibleOneWay makes (or breaks) the directed link from->to only:
// from can transmit to to, but not necessarily the reverse. This models
// asymmetric radio reach — a strong transmitter heard by a weak one
// whose replies do not carry back.
func (n *Network) SetVisibleOneWay(from, to wire.Addr, visible bool) {
	if from == to {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setDirLocked(from, to, visible)
}

func (n *Network) setDirLocked(from, to wire.Addr, visible bool) {
	if visible {
		n.vis[dedge{from, to}] = true
	} else {
		delete(n.vis, dedge{from, to})
	}
}

// Visible reports whether a and b can currently communicate in both
// directions.
func (n *Network) Visible(a, b wire.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vis[dedge{a, b}] && n.vis[dedge{b, a}]
}

// VisibleOneWay reports whether the directed link from->to is up.
func (n *Network) VisibleOneWay(from, to wire.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vis[dedge{from, to}]
}

// ConnectAll makes every attached pair mutually visible.
func (n *Network) ConnectAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	addrs := make([]wire.Addr, 0, len(n.nodes))
	for a := range n.nodes {
		addrs = append(addrs, a)
	}
	for i := range addrs {
		for j := i + 1; j < len(addrs); j++ {
			n.setDirLocked(addrs[i], addrs[j], true)
			n.setDirLocked(addrs[j], addrs[i], true)
		}
	}
}

// Isolate removes every visibility edge touching addr in either
// direction (the node moves out of range without detaching).
func (n *Network) Isolate(addr wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for e := range n.vis {
		if e.from == addr || e.to == addr {
			delete(n.vis, e)
		}
	}
}

// Partition replaces the whole visibility relation: nodes within each
// group become fully mutually visible, nodes in different groups not.
func (n *Network) Partition(groups ...[]wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.vis = make(map[dedge]bool)
	for _, g := range groups {
		for i := range g {
			for j := i + 1; j < len(g); j++ {
				n.setDirLocked(g[i], g[j], true)
				n.setDirLocked(g[j], g[i], true)
			}
		}
	}
}

// --- scheduled mobility ---------------------------------------------------
//
// Timed visibility traces run on the network clock: with a virtual clock
// the same schedule replays deterministically, which is what lets the
// mobility soak assert exact invariants across partition/heal cycles.

// ScheduleVisible arranges for the symmetric edge a<->b to change state
// after d on the network clock.
func (n *Network) ScheduleVisible(d time.Duration, a, b wire.Addr, visible bool) {
	n.clk.AfterFunc(d, func() { n.SetVisible(a, b, visible) })
}

// ScheduleVisibleOneWay arranges for the directed link from->to to
// change state after d.
func (n *Network) ScheduleVisibleOneWay(d time.Duration, from, to wire.Addr, visible bool) {
	n.clk.AfterFunc(d, func() { n.SetVisibleOneWay(from, to, visible) })
}

// SchedulePartition arranges for Partition(groups...) after d.
func (n *Network) SchedulePartition(d time.Duration, groups ...[]wire.Addr) {
	n.clk.AfterFunc(d, func() { n.Partition(groups...) })
}

// ScheduleConnectAll arranges for a full heal after d.
func (n *Network) ScheduleConnectAll(d time.Duration) {
	n.clk.AfterFunc(d, func() { n.ConnectAll() })
}

// SetLoss changes the per-message drop probability at runtime (failure
// injection in tests and experiments).
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults.Loss = p
}

// SetLatency changes the one-way delivery latency at runtime.
func (n *Network) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults.Latency = d
}

// SetFaults replaces the default fault plan applied to every link that
// has no per-edge override.
func (n *Network) SetFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// Faults returns the current default fault plan.
func (n *Network) Faults() Faults {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// SetEdgeFaults overrides the fault plan for the (symmetric) edge a<->b,
// modelling one bad link in an otherwise healthy neighbourhood.
func (n *Network) SetEdgeFaults(a, b wire.Addr, f Faults) {
	if a == b {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.edgeFaults[mkEdge(a, b)] = f
}

// ClearEdgeFaults removes the per-edge override for a<->b; the default
// plan applies again.
func (n *Network) ClearEdgeFaults(a, b wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.edgeFaults, mkEdge(a, b))
}

// faultsForLocked returns the plan governing the a->b transmission.
// Callers must hold n.mu.
func (n *Network) faultsForLocked(a, b wire.Addr) Faults {
	if f, ok := n.edgeFaults[mkEdge(a, b)]; ok {
		return f
	}
	return n.faults
}

// SetNodeLimp starts (or restarts) a limp-mode ramp on every link
// touching addr: a node whose NIC, disk, or scheduler is slowly dying
// gets slower to everyone at once.
func (n *Network) SetNodeLimp(addr wire.Addr, l Limp) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodeLimps[addr] = limpState{l: l, start: n.clk.Now()}
}

// ClearNodeLimp heals addr's limp immediately.
func (n *Network) ClearNodeLimp(addr wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodeLimps, addr)
}

// SetEdgeLimp starts a limp-mode ramp on the symmetric edge a<->b only
// (one flaky path in an otherwise healthy neighbourhood).
func (n *Network) SetEdgeLimp(a, b wire.Addr, l Limp) {
	if a == b {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.edgeLimps[mkEdge(a, b)] = limpState{l: l, start: n.clk.Now()}
}

// limpForLocked returns the extra one-way latency the active limps add
// to the from->to transmission right now: the worst of the sender's
// limp, the receiver's limp, and the edge's limp. Callers must hold
// n.mu.
func (n *Network) limpForLocked(from, to wire.Addr) time.Duration {
	if len(n.nodeLimps) == 0 && len(n.edgeLimps) == 0 {
		return 0
	}
	now := n.clk.Now()
	var d time.Duration
	if s, ok := n.nodeLimps[from]; ok {
		d = s.extraAt(now)
	}
	if s, ok := n.nodeLimps[to]; ok {
		if e := s.extraAt(now); e > d {
			d = e
		}
	}
	if s, ok := n.edgeLimps[mkEdge(from, to)]; ok {
		if e := s.extraAt(now); e > d {
			d = e
		}
	}
	return d
}

// applyLimpLocked folds the active limp (if any) into a transmission's
// fault plan and counts the slowed frame. Callers must hold n.mu.
func (n *Network) applyLimpLocked(from, to wire.Addr, f Faults) Faults {
	if extra := n.limpForLocked(from, to); extra > 0 {
		f.Latency += extra
		n.met.Inc(trace.CtrChaosLimped)
	}
	return f
}

// Neighbors returns the addresses currently visible from a, in
// unspecified order.
func (n *Network) Neighbors(a wire.Addr) []wire.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.neighborsLocked(a)
}

func (n *Network) neighborsLocked(a wire.Addr) []wire.Addr {
	var out []wire.Addr
	for e, ok := range n.vis {
		if !ok || e.from != a {
			continue
		}
		if _, live := n.nodes[e.to]; live {
			out = append(out, e.to)
		}
	}
	return out
}

// Addrs returns all attached addresses.
func (n *Network) Addrs() []wire.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]wire.Addr, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	return out
}

// Churn flips `flips` random potential edges among the attached nodes
// using the network PRNG, returning how many edges changed state. It
// models hosts wandering in and out of range.
func (n *Network) Churn(flips int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	addrs := make([]wire.Addr, 0, len(n.nodes))
	for a := range n.nodes {
		addrs = append(addrs, a)
	}
	if len(addrs) < 2 {
		return 0
	}
	changed := 0
	for i := 0; i < flips; i++ {
		a := addrs[n.rng.Intn(len(addrs))]
		b := addrs[n.rng.Intn(len(addrs))]
		if a == b {
			continue
		}
		// Churn flips the symmetric link: an edge that is up in either
		// direction goes fully down, otherwise fully up.
		up := n.vis[dedge{a, b}] || n.vis[dedge{b, a}]
		n.setDirLocked(a, b, !up)
		n.setDirLocked(b, a, !up)
		changed++
	}
	return changed
}

// Close shuts the whole network down.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, nd := range n.nodes {
		if !nd.closed {
			nd.closed = true
			close(nd.inbox)
		}
	}
	n.nodes = make(map[wire.Addr]*node)
	n.vis = make(map[dedge]bool)
}

// --- endpoint ------------------------------------------------------------

func (nd *node) Addr() wire.Addr { return nd.addr }

func (nd *node) Recv() <-chan *wire.Message { return nd.inbox }

func (nd *node) Close() error {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd.closed {
		return nil
	}
	nd.closed = true
	close(nd.inbox)
	delete(n.nodes, nd.addr)
	for e := range n.vis {
		if e.from == nd.addr || e.to == nd.addr {
			delete(n.vis, e)
		}
	}
	return nil
}

// Send implements transport.Endpoint: every message, whatever its type,
// is encoded as one frame, leaving to the link a From that is nd's own,
// and transmitted immediately.
func (nd *node) Send(to wire.Addr, m *wire.Message) error {
	n := nd.net
	n.mu.Lock()
	if nd.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok || !n.vis[dedge{nd.addr, to}] {
		n.mu.Unlock()
		n.met.Inc(trace.CtrMsgsDropped)
		return fmt.Errorf("%s -> %s: %w", nd.addr, to, transport.ErrUnreachable)
	}
	// Encode into a pooled buffer: transmit hands the frame to the decoding
	// edge synchronously (deliver parses before deferring the enqueue) and
	// holdBack copies what it parks, so the buffer is free again here.
	buf := wire.GetBuf()
	buf.B = wire.AppendEncodeBy(buf.B, m, nd.addr)
	data := buf.B
	n.met.Inc(trace.CtrMsgsSent)
	n.met.Inc(trace.CtrUnicasts)
	n.met.Add(trace.CtrBytesSent, int64(len(data)))
	f := n.applyLimpLocked(nd.addr, to, n.faultsForLocked(nd.addr, to))
	n.mu.Unlock()
	n.transmit(nd.addr, dst, data, f)
	buf.Release()
	return nil
}

// Multicast implements transport.Endpoint, encoding m once, as Send does.
func (nd *node) Multicast(m *wire.Message) (int, error) {
	n := nd.net
	n.mu.Lock()
	if nd.closed {
		n.mu.Unlock()
		return 0, transport.ErrClosed
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendEncodeBy(buf.B, m, nd.addr)
	data := buf.B
	neighbors := n.neighborsLocked(nd.addr)
	n.met.Inc(trace.CtrMulticasts)
	n.met.Add(trace.CtrBytesSent, int64(len(data)))
	type target struct {
		nd *node
		f  Faults
	}
	targets := make([]target, 0, len(neighbors))
	for _, a := range neighbors {
		targets = append(targets, target{n.nodes[a], n.applyLimpLocked(nd.addr, a, n.faultsForLocked(nd.addr, a))})
	}
	n.mu.Unlock()
	for _, tg := range targets {
		if n.transmit(nd.addr, tg.nd, data, tg.f) {
			n.met.Inc(trace.CtrMulticastRecvs)
		}
	}
	buf.Release()
	return len(targets), nil
}

// transmit runs one frame through the link's fault plan: corruption,
// loss, duplication, reordering, and latency+jitter. It reports whether
// the primary copy was put on its way to dst (false only for loss).
func (n *Network) transmit(from wire.Addr, dst *node, data []byte, f Faults) bool {
	if f.Corrupt > 0 && n.chance(f.Corrupt) {
		// Flip one bit of a private copy so multicast siblings and
		// duplicate deliveries of the same frame are unaffected.
		data = append([]byte(nil), data...)
		pos := n.intn(len(data) * 8)
		data[pos/8] ^= 1 << (pos % 8)
		n.met.Inc(trace.CtrChaosCorrupts)
	}
	if f.Loss > 0 && n.chance(f.Loss) {
		n.met.Inc(trace.CtrMsgsDropped)
		return false // loss is silent, like the real world
	}
	lat := f.Latency + n.jitter(f.Jitter)
	if f.Dup > 0 && n.chance(f.Dup) {
		n.met.Inc(trace.CtrChaosDups)
		n.deliver(from, dst, data, f.Latency+n.jitter(f.Jitter))
	}
	if f.Reorder > 0 && n.chance(f.Reorder) {
		n.holdBack(from, dst, data, lat, f)
		return true
	}
	n.deliver(from, dst, data, lat)
	n.flushHeld(dst)
	return true
}

// holdBack parks a frame so it is delivered behind the next frame sent
// to dst, or after a short flush delay if no later traffic arrives.
func (n *Network) holdBack(from wire.Addr, dst *node, data []byte, lat time.Duration, f Faults) {
	n.mu.Lock()
	if dst.closed {
		n.mu.Unlock()
		n.met.Inc(trace.CtrMsgsDropped)
		return
	}
	// Copy: the caller's frame lives in a pooled buffer that is reused as
	// soon as transmit returns, but a held frame outlives the send.
	dst.held = append(dst.held, heldFrame{from: from, data: append([]byte(nil), data...), lat: lat})
	n.mu.Unlock()
	n.met.Inc(trace.CtrChaosReorders)
	flushAfter := f.Latency + f.Jitter + time.Millisecond
	n.clk.AfterFunc(flushAfter, func() { n.flushHeld(dst) })
}

// flushHeld releases any parked frames for dst. Each frame re-checks its
// edge at delivery (enqueue): a hold-back that outlived its visibility
// window is dropped, not delivered stale.
func (n *Network) flushHeld(dst *node) {
	n.mu.Lock()
	held := dst.held
	dst.held = nil
	n.mu.Unlock()
	for _, h := range held {
		n.deliver(h.from, dst, h.data, h.lat)
	}
}

// chance reports a Bernoulli trial against the network PRNG.
func (n *Network) chance(p float64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < p
}

// intn draws a uniform int in [0,k) from the network PRNG.
func (n *Network) intn(k int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Intn(k)
}

// jitter draws a uniform duration in [0,d).
func (n *Network) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Duration(n.rng.Int63n(int64(d)))
}

// deliver decodes, stamps the link's sender on a frame without a From and
// enqueues the frame, after the configured latency. Validation happens
// here, at the receiving edge: a frame corrupted in transit fails its
// checksum and is counted and dropped, exactly as the real transport does.
func (n *Network) deliver(from wire.Addr, dst *node, data []byte, lat time.Duration) {
	// Decode copies the frame into the message's own object: the caller's
	// buffer is pooled and reused the moment transmit returns, while the
	// decoded message lives arbitrarily long in the receiver.
	msg, err := wire.Decode(data)
	if err != nil {
		n.met.Inc(trace.CtrCorruptFrames)
		n.met.Inc(trace.CtrMsgsDropped)
		return
	}
	if msg.From == "" {
		msg.From = from
	}
	if lat <= 0 {
		n.enqueue(from, dst, msg)
		return
	}
	n.clk.AfterFunc(lat, func() { n.enqueue(from, dst, msg) })
}

func (n *Network) enqueue(from wire.Addr, dst *node, msg *wire.Message) {
	// The send happens under the network lock so it cannot race a
	// concurrent Close of the destination; the inbox is buffered and the
	// send non-blocking, so the critical section stays short.
	n.mu.Lock()
	defer n.mu.Unlock()
	if dst.closed {
		n.met.Inc(trace.CtrMsgsDropped)
		return
	}
	// Radio propagation: delivery requires the directed edge to be up at
	// delivery time, not just at send time. A frame delayed by latency or
	// reorder hold-back whose edge went invisible mid-flight is dropped —
	// delivering it would smuggle data across a partition.
	if !n.vis[dedge{from, dst.addr}] {
		n.met.Inc(trace.CtrStaleDrops)
		n.met.Inc(trace.CtrMsgsDropped)
		return
	}
	select {
	case dst.inbox <- msg:
	default:
		n.met.Inc(trace.CtrMsgsDropped) // inbox overflow
	}
}
