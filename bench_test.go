// Repository-root benchmarks: one per reproduction experiment (DESIGN.md
// §4) plus micro-benchmarks of the core data structures. The experiment
// benchmarks run the Quick scale of the same harness code that
// cmd/tiamat-bench runs at Full scale; -v prints the resulting tables.
package tiamat_test

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"tiamat"
	"tiamat/clock"
	"tiamat/internal/harness"
	"tiamat/internal/store"
	"tiamat/lease"
	"tiamat/space"
	"tiamat/space/spacetest"
	"tiamat/trace"
	"tiamat/transport"
	"tiamat/transport/memnet"
	"tiamat/transport/netudp"
	"tiamat/tuple"
	"tiamat/wire"
)

// benchTable runs an experiment once per b.N and reports its wall time.
func benchTable(b *testing.B, run func(harness.Scale) (*harness.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := run(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			table.Fprint(benchWriter{b})
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

func BenchmarkE1Figure1(b *testing.B) {
	benchTable(b, func(harness.Scale) (*harness.Table, error) { return harness.E1Figure1() })
}
func BenchmarkE2ResponderList(b *testing.B)     { benchTable(b, harness.E2ResponderList) }
func BenchmarkE3LeaseReclaim(b *testing.B)      { benchTable(b, harness.E3LeaseReclaim) }
func BenchmarkE4WebProxyScaling(b *testing.B)   { benchTable(b, harness.E4WebProxy) }
func BenchmarkE5Fractal(b *testing.B)           { benchTable(b, harness.E5Fractal) }
func BenchmarkE6FederatedVsTiamat(b *testing.B) { benchTable(b, harness.E6FederatedVsTiamat) }
func BenchmarkE7ReplicaCost(b *testing.B)       { benchTable(b, harness.E7ReplicaCost) }
func BenchmarkE8FloodVsList(b *testing.B)       { benchTable(b, harness.E8FloodVsList) }
func BenchmarkE9Availability(b *testing.B)      { benchTable(b, harness.E9Availability) }
func BenchmarkE10Churn(b *testing.B)            { benchTable(b, harness.E10Churn) }
func BenchmarkT1LocalOps(b *testing.B)          { benchTable(b, harness.T1LocalOps) }
func BenchmarkT2LeaseNegotiation(b *testing.B)  { benchTable(b, harness.T2LeaseNegotiation) }
func BenchmarkX1Backbone(b *testing.B)          { benchTable(b, harness.X1Backbone) }
func BenchmarkX2AdaptiveDiscovery(b *testing.B) { benchTable(b, harness.X2AdaptiveDiscovery) }
func BenchmarkAB1ContactFanout(b *testing.B)    { benchTable(b, harness.AB1ContactFanout) }

// --- micro-benchmarks ----------------------------------------------------

func BenchmarkTupleMatch(b *testing.B) {
	t := tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bool(true))
	p := tuple.Tmpl(tuple.String("req"), tuple.FormalInt(), tuple.Any())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Matches(t) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkTupleEncode(b *testing.B) {
	t := tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bytes(make([]byte, 256)))
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = t.AppendBinary(buf[:0])
	}
	_ = buf
}

func BenchmarkTupleDecode(b *testing.B) {
	data := tuple.T(tuple.String("req"), tuple.Int(42), tuple.Bytes(make([]byte, 256))).AppendBinary(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tuple.DecodeTuple(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreOutInp(b *testing.B) {
	s := store.New()
	defer s.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Out(t, time.Time{}); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Inp(p); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreWakeOneOfEight: eight takers parked on one template, one
// out per iteration. The out hands its tuple to the oldest, from inside,
// and leaves seven parked; the taker accepts and parks again at the back.
// The cost must not depend on how many others are parked.
func BenchmarkStoreWakeOneOfEight(b *testing.B) {
	s := store.New()
	defer s.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	calls := 0
	var again space.Sink
	again = spacetest.SinkFunc(func(_ tuple.Tuple, h space.Hold) {
		calls++
		h.Accept()
		s.Park(p, space.Claim, again)
	})
	for k := 0; k < 8; k++ {
		s.Park(p, space.Claim, again)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Out(t, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	if calls != b.N {
		b.Fatalf("%d outs called %d takers", b.N, calls)
	}
}

func BenchmarkStoreRdpDenseBucket(b *testing.B) {
	s := store.New()
	defer s.Close()
	for i := 0; i < 10000; i++ {
		s.Out(tuple.T(tuple.String("k"), tuple.Int(int64(i))), time.Time{})
	}
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Rdp(p); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkLeaseGrantCancel(b *testing.B) {
	m := lease.NewManager(lease.DefaultCapacity(), clock.Real{})
	defer m.Close()
	r := lease.Flexible(lease.Terms{Duration: time.Second, MaxRemotes: 4, MaxBytes: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := m.Grant(lease.OpRd, r)
		if err != nil {
			b.Fatal(err)
		}
		l.Cancel()
	}
}

func BenchmarkLocalOutInpThroughInstance(b *testing.B) {
	op := localTake(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// localTake starts one instance and returns one Out + local Inp through
// it. The instance closes at the test's cleanup.
func localTake(tb testing.TB) (op func()) {
	net := memnet.New()
	tb.Cleanup(net.Close)
	ep, err := net.Attach("bench")
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := tiamat.New(tiamat.Config{Endpoint: ep})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { inst.Close() })
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	ctx := context.Background()
	return func() {
		if err := inst.Out(t, nil); err != nil {
			tb.Fatal(err)
		}
		if _, ok, err := inst.Inp(ctx, p, nil); err != nil || !ok {
			tb.Fatalf("inp: %v %v", ok, err)
		}
	}
}

// schedSamples is the runtime's count so far of the samples behind
// /sched/latencies:seconds: one for every 8th time each goroutine stops
// running and later runs again (handoffsPerOp says which transitions).
func schedSamples() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// handoffsPerOp estimates the goroutine hand-offs each of n runs of op
// costs: eight per sample the runtime took while they ran. In Go 1.24,
// casgstatus (runtime/proc.go) arms a sample on every 8th transition of a
// goroutine out of running, syscall entry included, and records it on the
// goroutine's next transition into running, syscall return included. So a
// hand-off here is a wake-up or a syscall return: over loopback TCP the
// reads and writes are most of the count (EXPERIMENTS.md L1 attributes
// both transports from an execution trace). Every goroutine in the
// process counts, the runtime's own (the garbage collector's) included,
// so it is an estimate with a floor, not an exact count.
func handoffsPerOp(n int, op func()) float64 {
	before := schedSamples()
	for k := 0; k < n; k++ {
		op()
	}
	return float64(schedSamples()-before) * 8 / float64(n)
}

// reportHandoffs runs a benchmark's b.N ops and reports their hand-offs
// per op (handoffsPerOp) beside its time and objects.
func reportHandoffs(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	b.ReportMetric(handoffsPerOp(b.N, op), "handoffs/op")
}

func BenchmarkRemoteInpTwoNodes(b *testing.B) {
	a, bb, _ := memnetPair(b)
	reportHandoffs(b, func() { remoteTake(b, a, bb) })
}

// BenchmarkRemoteInpTwoNodesTCP is BenchmarkRemoteInpTwoNodes over
// loopback TCP (netudp, static peers, no multicast), so `make allocs
// BENCH=RemoteInpTwoNodesTCP` attributes the socket receive path site by
// site.
func BenchmarkRemoteInpTwoNodesTCP(b *testing.B) {
	a, bb, _ := tcpPair(b)
	reportHandoffs(b, func() { remoteTake(b, a, bb) })
}

// BenchmarkRemoteRdpMissTwoNodes is a warm exact-key Rdp that misses: b
// asks a, listed, which answers not-found, and the walk's closing
// multicast skips a, so it reaches nobody. Beside its hand-offs it reports
// the frames each miss sends (net.msgs_sent), so `make handoffs` and `make
// allocs BENCH=RemoteRdpMissTwoNodes` price the miss path.
func BenchmarkRemoteRdpMissTwoNodes(b *testing.B) {
	a, bb, met := memnetPair(b)
	remoteMiss(b, a, bb) // the not-found lists a at b
	frames := met.Get(trace.CtrMsgsSent)
	reportHandoffs(b, func() { remoteMiss(b, a, bb) })
	b.ReportMetric(float64(met.Get(trace.CtrMsgsSent)-frames)/float64(b.N), "frames/op")
}

// BenchmarkRemoteOutAtTwoNodes is a remote out: b puts a tuple into a's
// space (TOut, TAck) and a takes it back locally, so the space stays
// empty and each op prices the serve of one out.
func BenchmarkRemoteOutAtTwoNodes(b *testing.B) {
	a, bb, _ := memnetPair(b)
	reportHandoffs(b, func() { remoteOutAt(b, a, bb) })
}

// remoteTakeAllocs is what one remote take measures over memnet: an Out
// at one node and an Inp from the other, round-tripping op, result,
// accept and ack. The objects: 4 received frames (wire.Decode, one each);
// the store entry, which is its own hold and the out's lease (a
// reservation, no lease object; the take's lease lives in its walk's
// object, and the responder admits its serve without one); the
// responder's pending hold, which carries the TAck; the found TResult,
// which the request's record keeps; and the take's walk, one object with
// its lease, TOp and accept record (DESIGN.md §7).
const remoteTakeAllocs = 8

// remoteBlockingTakeAllocs is what one round of
// BenchmarkRemoteInBlockingTwoNodes measures: an Out at a served to one
// of eight blocking takers parked there from b, and that taker parking
// again. It is remoteTakeAllocs plus the taker's local registration and
// the served wait, which carries its serve lease, and the wait's
// registration in a's space, which parks the received frame's template
// as it is.
const remoteBlockingTakeAllocs = 11

// localTakeAllocs is what an Out and a local Inp through one instance
// measure: the store entry, which is the out's lease (a reservation, no
// lease object). An Inp the local space answers mints no lease.
const localTakeAllocs = 1

// remoteTakeWireBytes is what one remote take puts on the wire over
// memnet: op, result, accept and ack, each leaving its sender's address
// to the channel. Over TCP each frame adds a one-byte length prefix.
// remoteMissWireBytes is one remote Rdp miss's op and not-found.
const (
	remoteTakeWireBytes    = 66
	remoteTakeWireBytesTCP = 70
	remoteMissWireBytes    = 34
)

// TestRemoteTakeAllocs pins BenchmarkRemoteInpTwoNodes's objects per take,
// so an object handed back anywhere on the path fails here first.
func TestRemoteTakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops some of what is put back; internal/core's TestRemoteTakeAllocBudget keeps a ceiling there")
	}
	a, bb, _ := memnetPair(t)
	for k := 0; k < 200; k++ {
		remoteTake(t, a, bb) // pools, heaps and maps reach their steady size
	}
	if got := testing.AllocsPerRun(2000, func() { remoteTake(t, a, bb) }); got != remoteTakeAllocs {
		t.Fatalf("Out + remote Inp: %.2f allocs, want %d", got, remoteTakeAllocs)
	}
}

// TestLocalTakeAllocs pins BenchmarkLocalOutInpThroughInstance's objects
// per op, as TestRemoteTakeAllocs does the remote take's.
func TestLocalTakeAllocs(t *testing.T) {
	op := localTake(t)
	for k := 0; k < 200; k++ {
		op()
	}
	if got := testing.AllocsPerRun(2000, op); got != localTakeAllocs {
		t.Fatalf("Out + local Inp: %.2f allocs, want %d", got, localTakeAllocs)
	}
}

// TestRemoteBlockingTakeAllocs pins BenchmarkRemoteInBlockingTwoNodes's
// objects per round, as TestRemoteTakeAllocs does the nonblocking take's.
func TestRemoteBlockingTakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops some of what is put back; internal/core's TestServedBlockingTakeAllocBudget keeps a ceiling there")
	}
	a, bb, _ := memnetPair(t)
	round := blockingTakers(t, a, bb)
	for k := 0; k < 200; k++ {
		round() // pools, heaps and maps reach their steady size
	}
	if got := testing.AllocsPerRun(2000, round); got != remoteBlockingTakeAllocs {
		t.Fatalf("Out + blocking remote In: %.2f allocs, want %d", got, remoteBlockingTakeAllocs)
	}
}

// TestRemoteTakeWireBytes pins the bytes one warm remote take puts on the
// wire (net.bytes_sent), over memnet and over loopback TCP, the way
// TestRemoteTakeAllocs pins its objects. Op IDs and hold IDs are varints,
// so the takes measured are the 100 after the first 200, whose IDs all
// take two bytes.
func TestRemoteTakeWireBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		pair func(testing.TB) (*tiamat.Instance, *tiamat.Instance, *trace.Metrics)
		want int64
	}{
		{"memnet", memnetPair, remoteTakeWireBytes},
		{"tcp", tcpPair, remoteTakeWireBytesTCP},
	} {
		a, b, met := c.pair(t)
		quiet := func() int64 {
			waitQuiet(met)
			return met.Get(trace.CtrBytesSent)
		}
		for k := 0; k < 200; k++ {
			remoteTake(t, a, b)
		}
		const takes = 100
		before := quiet()
		for k := 0; k < takes; k++ {
			remoteTake(t, a, b)
		}
		if got := quiet() - before; got != takes*c.want {
			t.Errorf("%s: %d bytes over %d takes, want %d per take", c.name, got, takes, c.want)
		}
	}
}

// remoteTakeHandoffs is the ceiling on the hand-offs one remote take costs
// over memnet: 3.15–3.17 measured on a two-vCPU guest.
const remoteTakeHandoffs = 3.5

// TestRemoteTakeHandoffs pins BenchmarkRemoteInpTwoNodes's hand-offs per
// take beside its objects (TestRemoteTakeAllocs).
func TestRemoteTakeHandoffs(t *testing.T) {
	pinHandoffs(t, "Out + remote Inp", remoteTakeHandoffs, remoteTake)
}

// remoteOutAtHandoffs is the ceiling on the hand-offs one remote out and
// its local take cost over memnet: b's caller to a's receive loop, which
// serves the out where it lands (a store-backed node has no serve pool),
// to b's receive loop and back to the caller, about three.
const remoteOutAtHandoffs = 3.5

// TestRemoteOutAtHandoffs pins BenchmarkRemoteOutAtTwoNodes's hand-offs
// per op, so a goroutine put back on the serve path fails here first.
func TestRemoteOutAtHandoffs(t *testing.T) {
	pinHandoffs(t, "OutAt + local Inp", remoteOutAtHandoffs, remoteOutAt)
}

// pinHandoffs fails t when op between a memnet pair, warmed up, costs more
// than ceiling hand-offs over 20 000 runs.
func pinHandoffs(t *testing.T, what string, ceiling float64, op func(testing.TB, *tiamat.Instance, *tiamat.Instance)) {
	if raceEnabled {
		t.Skip("the ceiling is measured on a plain build; the race detector's scheduling is not what it counts")
	}
	a, b, _ := memnetPair(t)
	for k := 0; k < 500; k++ {
		op(t, a, b)
	}
	if got := handoffsPerOp(20000, func() { op(t, a, b) }); got > ceiling {
		t.Fatalf("%s: %.2f hand-offs, want at most %.1f", what, got, ceiling)
	}
}

// memnetPair is two instances on one simulated network, and the
// network's counters. Their addresses are several bytes long, as in every
// real cluster: the runtime interns a one-byte string, so a one-byte
// address would hide what decoding one costs.
func memnetPair(tb testing.TB) (a, b *tiamat.Instance, met *trace.Metrics) {
	net := memnet.New()
	tb.Cleanup(func() { net.Close() })
	epA, _ := net.Attach("n0")
	epB, _ := net.Attach("n1")
	net.ConnectAll()
	return newInstance(tb, epA), newInstance(tb, epB), net.Metrics()
}

// tcpPair is two instances over loopback TCP, b knowing a as a static
// peer, and the counters both transports share.
func tcpPair(tb testing.TB) (a, b *tiamat.Instance, met *trace.Metrics) {
	met = &trace.Metrics{}
	epA, err := netudp.New(netudp.Config{Metrics: met})
	if err != nil {
		tb.Fatal(err)
	}
	a = newInstance(tb, epA)
	epB, err := netudp.New(netudp.Config{Metrics: met, StaticPeers: []string{string(epA.Addr())}})
	if err != nil {
		tb.Fatal(err)
	}
	return a, newInstance(tb, epB), met
}

func newInstance(tb testing.TB, ep transport.Endpoint) *tiamat.Instance {
	inst, err := tiamat.New(tiamat.Config{Endpoint: ep})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { inst.Close() })
	return inst
}

var (
	remoteTuple = tuple.T(tuple.String("k"), tuple.Int(1))
	remoteTmpl  = tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	missTmpl    = tuple.Tmpl(tuple.String("k"), tuple.Int(2))
	remoteReq   = lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 4})
)

// remoteTake outs at a and takes it from b: the full protocol of op, hold,
// result and accept.
func remoteTake(tb testing.TB, a, b *tiamat.Instance) {
	if err := a.Out(remoteTuple, nil); err != nil {
		tb.Fatal(err)
	}
	for {
		_, ok, err := b.Inp(context.Background(), remoteTmpl, remoteReq)
		if err != nil {
			tb.Fatal(err)
		}
		if ok {
			return
		}
	}
}

// remoteMiss asks a, from b, for a tuple nobody holds.
func remoteMiss(tb testing.TB, _, b *tiamat.Instance) {
	if _, ok, err := b.Rdp(context.Background(), missTmpl, remoteReq); err != nil || ok {
		tb.Fatalf("Rdp of a tuple nobody holds: %v %v", ok, err)
	}
}

// remoteOutAt outs at a from b and takes the tuple back at a, locally.
func remoteOutAt(tb testing.TB, a, b *tiamat.Instance) {
	if err := b.OutAt(a.Addr(), remoteTuple, nil); err != nil {
		tb.Fatal(err)
	}
	if _, ok, err := a.Inp(context.Background(), remoteTmpl, nil); err != nil || !ok {
		tb.Fatalf("local Inp after OutAt: %v %v", ok, err)
	}
}

// BenchmarkRemoteInBlockingTwoNodes is the master/worker shape: eight
// blocking takers on b parked on one template at a, one out per
// iteration, timed until some taker has it. What it prices is the serve
// side of a blocking take: the out calls one parked taker's sink, which
// sends the reply, and no goroutine at a is woken at all.
func BenchmarkRemoteInBlockingTwoNodes(b *testing.B) {
	a, bb, _ := memnetPair(b)
	reportHandoffs(b, blockingTakers(b, a, bb))
}

// blockingTakers parks eight blocking takers on b for one template at a
// and returns one round of the master/worker shape: an out at a, until
// some taker has it. The takers stop at the test's cleanup.
func blockingTakers(tb testing.TB, a, b *tiamat.Instance) (round func()) {
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	req := lease.Flexible(lease.Terms{Duration: time.Minute, MaxRemotes: 4})

	const takers = 8
	ctx, cancel := context.WithCancel(context.Background())
	taken := make(chan struct{}, takers)
	var wg sync.WaitGroup
	for k := 0; k < takers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := b.In(ctx, p, req); err == nil {
					taken <- struct{}{}
				}
			}
		}()
	}
	tb.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	round = func() {
		if err := a.Out(t, nil); err != nil {
			tb.Fatal(err)
		}
		<-taken
	}
	// One warm-up round teaches b where a is, so every timed take is a
	// unicast wait parked at a and not a discovery multicast.
	round()
	return round
}

// BenchmarkRemoteInpTwoNodesReplicated is the R=2 twin of
// BenchmarkRemoteInpTwoNodes: every out write-through-replicates to the
// ring backup and every take runs the sibling-invalidation round, so
// the delta against the R=1 number is the steady-state cost of leased
// replication on the remote hot path.
func BenchmarkRemoteInpTwoNodesReplicated(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	net.ConnectAll()
	a, err := tiamat.New(tiamat.Config{Endpoint: epA, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	bb, err := tiamat.New(tiamat.Config{Endpoint: epB, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer bb.Close()
	t := tuple.T(tuple.String("k"), tuple.Int(1))
	p := tuple.Tmpl(tuple.String("k"), tuple.FormalInt())
	ctx := context.Background()
	req := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxRemotes: 4})
	outReq := lease.Flexible(lease.Terms{Duration: 10 * time.Second, MaxBytes: 1 << 16, MaxRemotes: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Out(t, outReq); err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := bb.Inp(ctx, p, req)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				break
			}
		}
	}
}

func BenchmarkSpacesDiscovery(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	var insts []*tiamat.Instance
	for i := 0; i < 8; i++ {
		ep, _ := net.Attach(wire.Addr(fmt.Sprintf("n%d", i)))
		inst, err := tiamat.New(tiamat.Config{Endpoint: ep})
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, inst)
	}
	defer func() {
		for _, i := range insts {
			i.Close()
		}
	}()
	net.ConnectAll()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infos, err := insts[0].Spaces(ctx)
		if err != nil || len(infos) != 8 {
			b.Fatalf("spaces: %d %v", len(infos), err)
		}
	}
}
