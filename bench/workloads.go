package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tiamat/internal/core"
	"tiamat/lease"
	"tiamat/tuple"
)

// Load is sized for a 2-core machine: the closed loops run 2 client
// goroutines, the open loop 1 pacing thread (its blocked In callers are
// parked, they are not load threads). dense_mixed runs 1 client: both
// clients' scans would queue on the one shard mutex, and the median op
// would sit on the edge between "waited for the other scan" and "did
// not", flipping between two values from run to run.
const (
	closedClients = 2

	// denseResident is the size of the one tag bucket A holds. The bucket
	// is kept well inside a core's private cache (about 0.5 MB of tuples
	// and index against 2 MB of L2): the closer a scan's working set comes
	// to the cache, the more its speed is set by what the machine's other
	// tenants do (README, finding 4).
	denseResident = 1024
	denseReplace  = 128 // of which this many are taken and written back
	denseStable   = denseResident - denseReplace

	farmRate       = 2000 // tasks per second, fixed
	farmWorkers    = 8
	farmCollectors = 8
	// farmDeadline is when a task counts as lost. It lies beyond the
	// program's own 2 s recovery timers (HoldGrace, the first suspect
	// cooldown, netudp's write timeout): a task one of them brought back is
	// late, which op_p999_us shows, not lost (README, finding 12).
	farmDeadline = 5 * time.Second
)

// workload describes one set of inputs. README.md says why each exists.
type workload struct {
	name      string
	transport string
	nodes     int
	loop      string // "closed" or "open", for the report
	clients   int    // closed-loop client goroutines
	// tag, payload and resident describe the tuples the layer replay uses.
	tag      string
	payload  int
	resident int
	prefill  func(l *load) error
	// run generates load until l.stop is set and returns once every
	// goroutine it started has ended.
	run func(l *load)
	// verify checks the final state and returns what is wrong with it.
	verify func(l *load) []string
}

var workloads = map[string]*workload{
	wTakePair: {
		name: wTakePair, transport: transportMemnet, nodes: 2, loop: "closed", clients: closedClients,
		tag: "job", payload: smallPayload, resident: 1,
		run: runTakePair, verify: verifyDrained,
	},
	wDenseMixed: {
		name: wDenseMixed, transport: transportMemnet, nodes: 2, loop: "closed", clients: 1,
		tag: "rec", payload: smallPayload, resident: denseResident,
		prefill: prefillDense, run: runDenseMixed, verify: verifyDense,
	},
	wWalk4TCP: {
		name: wWalk4TCP, transport: transportNetudp, nodes: 4, loop: "closed", clients: closedClients,
		tag: "evt", payload: smallPayload, resident: 1,
		run: runWalk4, verify: verifyDrained,
	},
	wFarmTCP: {
		name: wFarmTCP, transport: transportNetudp, nodes: 2, loop: "open",
		tag: "task", payload: taskPayload, resident: 1,
		run: runFarm, verify: verifyDrained,
	},
}

type sample struct {
	end int64 // ns since load start
	dur int64 // ns
}

// sampler holds the latency samples of one goroutine, in chunks of a
// fixed size: one growing slice would double, and the copy made a faster
// run's peak RSS jump by the size of the slice (4 MB of 29 on take_pair).
type sampler struct {
	chunks [][]sample
}

const samplerChunk = 1 << 12

func (s *sampler) add(x sample) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == samplerChunk {
		s.chunks = append(s.chunks, make([]sample, 0, samplerChunk))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, x)
}

// load is the state shared by the goroutines of one run.
type load struct {
	w    *workload
	seed int64
	cl   *cluster
	g    *gen
	t0   time.Time

	// ctx is cancelled at the end of the run to release blocked In calls.
	ctx    context.Context
	cancel context.CancelFunc
	stop   atomic.Bool

	done      atomic.Int64 // timed ops completed
	attempted atomic.Int64 // Instance calls made
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string // the first few, for the report
	samplers []*sampler
	lateNs   []sample // open loop: how late each arrival was dispatched
}

func (l *load) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

func (l *load) newSampler() *sampler {
	s := &sampler{}
	l.mu.Lock()
	l.samplers = append(l.samplers, s)
	l.mu.Unlock()
	return s
}

// record stores one timed op. The completion counter and the sample are
// written together so ops per second and the percentiles describe the
// same ops.
func (l *load) record(s *sampler, start, end time.Time) {
	s.add(sample{end: int64(end.Sub(l.t0)), dur: int64(end.Sub(start))})
	l.done.Add(1)
}

// clients runs the workload's closed-loop goroutines and waits for them.
func (l *load) clients(body func(client int, r *rand.Rand, s *sampler)) {
	var wg sync.WaitGroup
	for c := 0; c < l.w.clients; c++ {
		s := l.newSampler()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, clientRand(l.seed, c), s)
		}(c)
	}
	wg.Wait()
}

// out writes one generated tuple and counts an error as a failure.
func (l *load) out(node int, tag string, key int64, scratch []byte, req lease.Requester) bool {
	t := l.g.tupleFor(tag, key, scratch)
	l.attempted.Add(1)
	start := time.Now()
	err := l.cl.inst[node].Out(t, req)
	l.cl.rec.clientOp(uint8(node), opOut, key, true, start, time.Now())
	if err != nil {
		l.fail("out %s %d on n%d: %v", tag, key, node, err)
		return false
	}
	return true
}

// probe runs one timed Inp or Rdp and records it. An error is a failure;
// whether a hit or a miss was the right answer is the caller's check.
func (l *load) probe(s *sampler, node int, code uint8, p tuple.Template, key int64, exact bool, req lease.Requester) (core.Result, bool) {
	inst := l.cl.inst[node]
	l.attempted.Add(1)
	var (
		res core.Result
		ok  bool
		err error
	)
	start := time.Now()
	if code == opInp {
		res, ok, err = inst.Inp(l.ctx, p, req)
	} else {
		res, ok, err = inst.Rdp(l.ctx, p, req)
	}
	end := time.Now()
	l.record(s, start, end)
	if l.cl.rec != nil {
		if !exact && ok {
			key, _ = res.Tuple.IntAt(1)
		}
		l.cl.rec.clientOp(uint8(node), code, key, exact || ok, start, end)
	}
	if err != nil {
		l.fail("%s %v on n%d: %v", clientOpNames[code], p, node, err)
		return core.Result{}, false
	}
	return res, ok
}

// wantHit checks a probe that had to find the tuple written under key.
func (l *load) wantHit(res core.Result, ok bool, key int64, exact bool, scratch []byte) bool {
	if !ok {
		l.fail("miss on %s key %d, known present", l.w.tag, key)
		return false
	}
	if _, err := l.g.check(res.Tuple, l.w.tag, key, exact, l.w.payload, scratch); err != nil {
		l.fail("wrong tuple: %v", err)
		return false
	}
	return true
}

// --- take_pair ---------------------------------------------------------------

// runTakePair: A.Out(("job",k,64B)) then timed B.Inp(("job",k,?bytes)),
// unique k. Every op crosses lease, local miss, responder walk, encode,
// governor, hold, reply and accept/ack with a bucket of at most two
// tuples and no syscalls.
func runTakePair(l *load) {
	base := keyBase(l.seed)
	l.clients(func(c int, _ *rand.Rand, s *sampler) {
		scratch := make([]byte, smallPayload)
		for i := int64(0); !l.stop.Load(); i++ {
			k := base + closedClients*i + int64(c)
			if !l.out(0, "job", k, scratch, reqOut) {
				continue
			}
			res, ok := l.probe(s, 1, opInp, exactTemplate("job", k), k, true, reqProbe)
			l.wantHit(res, ok, k, true, scratch)
		}
	})
}

// verifyDrained: every tuple written was taken, so only the space-info
// tuples remain.
func verifyDrained(l *load) []string {
	want := len(l.cl.inst)
	if got := l.cl.settleResident(want); got != want {
		return []string{fmt.Sprintf("%d tuples left in the cluster, want only the %d space-info tuples", got, want)}
	}
	return nil
}

// --- dense_mixed -------------------------------------------------------------

// Keys 0..denseStable-1 are only read; the next denseReplace keys are
// taken and written back; keys from denseResident up are never written.
// A key is back in place before its client's next op, so "known present"
// and "known absent" always hold.

func prefillDense(l *load) error {
	order := rand.New(rand.NewSource(l.seed)).Perm(denseResident)
	scratch := make([]byte, smallPayload)
	for _, k := range order {
		if !l.out(0, "rec", int64(k), scratch, reqResident) {
			return errors.New("prefill failed")
		}
	}
	return nil
}

// runDenseMixed, closed loop of one client on B against A's 1024-tuple bucket:
// 60 % Rdp exact-key hit (zipf s=1.1), 15 % Rdp exact-key miss, 10 %
// Rdp(("rec",?int,?bytes)), 15 % replace (timed Inp exact key, then A.Out
// of the same key).
func runDenseMixed(l *load) {
	// The zipf ranks map to keys through a seeded permutation, so which
	// keys are hot depends on the seed and not on insertion order.
	hot := rand.New(rand.NewSource(l.seed ^ 0x5eed)).Perm(denseStable)
	l.clients(func(_ int, r *rand.Rand, s *sampler) {
		zipf := rand.NewZipf(r, 1.1, 1, denseStable-1)
		scratch := make([]byte, smallPayload)
		next := 0
		for !l.stop.Load() {
			switch x := r.Float64(); {
			case x < 0.60:
				k := int64(hot[zipf.Uint64()])
				res, ok := l.probe(s, 1, opRdp, exactTemplate("rec", k), k, true, reqProbe)
				l.wantHit(res, ok, k, true, scratch)
			case x < 0.75:
				k := int64(denseResident + r.Intn(denseResident))
				if _, ok := l.probe(s, 1, opRdp, exactTemplate("rec", k), k, true, reqAbsent); ok {
					l.fail("hit on rec key %d, known absent", k)
				}
			case x < 0.85:
				res, ok := l.probe(s, 1, opRdp, formalTemplate("rec"), 0, false, reqProbe)
				l.wantHit(res, ok, 0, false, scratch)
			default:
				k := int64(denseStable + next%denseReplace)
				next++
				res, ok := l.probe(s, 1, opInp, exactTemplate("rec", k), k, true, reqProbe)
				if l.wantHit(res, ok, k, true, scratch) {
					l.out(0, "rec", k, scratch, reqResident)
				}
			}
		}
	})
}

func verifyDense(l *load) []string {
	want := denseResident + len(l.cl.inst)
	if got := l.cl.settleResident(want); got != want {
		return []string{fmt.Sprintf("%d resident tuples at the end, want %d", got-len(l.cl.inst), denseResident)}
	}
	return nil
}

// --- walk4_tcp ---------------------------------------------------------------

// runWalk4: 4 nodes over loopback TCP. A holder drawn 0.6/0.3/0.1 from
// n1..n3 does Out(("evt",k,64B)), then timed n0.Inp exact key: the
// responder walk, found-promotion and real sessions dominate.
func runWalk4(l *load) {
	base := keyBase(l.seed)
	l.clients(func(c int, r *rand.Rand, s *sampler) {
		scratch := make([]byte, smallPayload)
		for i := int64(0); !l.stop.Load(); i++ {
			k := base + closedClients*i + int64(c)
			holder := 1
			if x := r.Float64(); x >= 0.9 {
				holder = 3
			} else if x >= 0.6 {
				holder = 2
			}
			if !l.out(holder, "evt", k, scratch, reqOut) {
				continue
			}
			res, ok := l.probe(s, 0, opInp, exactTemplate("evt", k), k, true, reqProbe)
			l.wantHit(res, ok, k, true, scratch)
		}
	})
}

// --- farm_tcp ----------------------------------------------------------------

// farm is the bookkeeping of the open loop: when each task was due and
// whether its result was collected.
type farm struct {
	base      int64
	collected []atomic.Int32 // by task index: 1 once its result was collected
	issued    atomic.Int64
	finished  atomic.Int64
}

// farmInterval is the fixed arrival spacing: task i is due at i*farmInterval.
const farmInterval = time.Second / farmRate

// prSetTimerslack is PR_SET_TIMERSLACK of prctl(2): the calling thread's
// timer slack, in nanoseconds.
const prSetTimerslack = 29

// runFarm: master n0 Outs ("task",i,1KiB) at a fixed 2000/s, every due
// arrival dispatched whatever has completed. 8 workers on n1 loop
// In(task) -> Out(("done",i,64B)); 8 collectors on n0 loop In(done). The
// timed op runs from the instant the task was due to the instant its
// result was collected.
func runFarm(l *load) {
	f := &farm{base: keyBase(l.seed)}
	// Room for a run far longer than any the benchmark makes; the pacer
	// stops at the end of the slice rather than overrun it.
	const maxTasks = farmRate * 120
	f.collected = make([]atomic.Int32, maxTasks)
	if rec := l.cl.rec; rec != nil {
		rec.dueBase, rec.dueEpochNs, rec.dueIntervalNs = f.base, int64(l.t0.Sub(rec.epoch)), int64(farmInterval)
	}

	var wg sync.WaitGroup
	for w := 0; w < farmWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			farmWorker(l)
		}()
	}
	for c := 0; c < farmCollectors; c++ {
		s := l.newSampler()
		wg.Add(1)
		go func() {
			defer wg.Done()
			farmCollector(l, f, s)
		}()
	}

	// The pacer sleeps until the next arrival is due. It sleeps in the
	// kernel on a thread of its own: a Go timer shorter than a millisecond
	// is rounded up to one whenever the runtime waits in epoll, which
	// would make the generator, not the system, the largest term of the
	// median task.
	runtime.LockOSThread()
	// Best effort: without it the kernel may add its default 50 us of
	// timer slack to every sleep of this thread.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	scratch := make([]byte, taskPayload)
	for next := int64(0); !l.stop.Load() && next < maxTasks; next++ {
		dueNs := next * int64(farmInterval)
		if wait := dueNs - int64(time.Since(l.t0)); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only costs a loop turn
			if time.Since(l.t0) < time.Duration(dueNs) {
				next--
				continue
			}
		}
		l.lateNs = append(l.lateNs, sample{end: dueNs, dur: int64(time.Since(l.t0)) - dueNs})
		f.issued.Store(next + 1) // before the Out: a collector may see the result first
		l.out(0, "task", f.base+next, scratch, reqOut)
	}
	runtime.UnlockOSThread()

	// Drain: every task issued must come back within the deadline.
	deadline := time.Now().Add(farmDeadline)
	for f.finished.Load() < f.issued.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	l.cancel()
	wg.Wait()
	for i := int64(0); i < f.issued.Load(); i++ {
		if f.collected[i].Load() == 0 {
			l.fail("task %d not finished within %v", f.base+i, farmDeadline)
		}
	}
}

// blockingIn runs one In and reports whether the loop should go on. A
// cancelled context is the end of the run, not a failure.
func (l *load) blockingIn(node int, p tuple.Template) (res core.Result, ok, more bool) {
	start := time.Now()
	res, err := l.cl.inst[node].In(l.ctx, p, reqWait)
	if err != nil && l.ctx.Err() != nil {
		return res, false, false
	}
	l.attempted.Add(1)
	if err != nil {
		l.fail("in %v on n%d: %v", p, node, err)
		return res, false, true
	}
	if l.cl.rec != nil {
		key, _ := res.Tuple.IntAt(1)
		l.cl.rec.clientOp(uint8(node), opIn, key, true, start, time.Now())
	}
	return res, true, true
}

func farmWorker(l *load) {
	in := make([]byte, taskPayload)
	out := make([]byte, smallPayload)
	for {
		res, ok, more := l.blockingIn(1, formalTemplate("task"))
		if !more {
			return
		}
		if !ok {
			continue
		}
		id, err := l.g.check(res.Tuple, "task", 0, false, taskPayload, in)
		if err != nil {
			l.fail("wrong tuple: %v", err)
			continue
		}
		l.out(1, "done", id, out, reqOut)
	}
}

func farmCollector(l *load, f *farm, s *sampler) {
	scratch := make([]byte, smallPayload)
	for {
		res, ok, more := l.blockingIn(0, formalTemplate("done"))
		if !more {
			return
		}
		if !ok {
			continue
		}
		end := time.Now()
		id, err := l.g.check(res.Tuple, "done", 0, false, smallPayload, scratch)
		if err != nil {
			l.fail("wrong tuple: %v", err)
			continue
		}
		i := id - f.base
		if i < 0 || i >= f.issued.Load() {
			l.fail("result for task %d, which was never issued", id)
			continue
		}
		if !f.collected[i].CompareAndSwap(0, 1) {
			l.fail("task %d finished twice", id)
			continue
		}
		f.finished.Add(1)
		due := l.t0.Add(time.Duration(i) * farmInterval)
		if end.Sub(due) > farmDeadline {
			l.fail("task %d took %v, over %v", id, end.Sub(due), farmDeadline)
		}
		l.record(s, due, end)
	}
}
