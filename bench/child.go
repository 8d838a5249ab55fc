package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tiamat/trace"
	"tiamat/wire"
)

// childConfig is one repeat of one workload: build the cluster, generate
// load, check the outputs, report. A repeat is a process of its own, so
// heap, GC state and ru_maxrss are per repeat.
type childConfig struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Warmup   time.Duration `json:"warmup"`
	Window   time.Duration `json:"window"`
	// SetupBudget is how long the repeat goes on building and prefilling
	// clusters after the one that carried the load; setup_s is taken over
	// all of them.
	SetupBudget time.Duration `json:"setup_budget"`
	// Traced decorates the endpoints, records spans and runs the layer
	// replay after the load.
	Traced bool `json:"traced"`
	// Quick shortens the layer replay (smoke test).
	Quick bool `json:"quick"`
	// CorruptEvery flips a byte in every n'th payload written (smoke
	// test of the output check).
	CorruptEvery int64 `json:"corrupt_every,omitempty"`
	// OutDir receives the spans of a traced run and the scratch files of
	// the layer replay. It lies inside the checkout.
	OutDir string `json:"out_dir"`
}

// childResult is what one repeat reports to the parent.
type childResult struct {
	Workload   string             `json:"workload"`
	Transport  string             `json:"transport"`
	Loop       string             `json:"loop"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Correct    bool               `json:"correct"`
	Problems   []string           `json:"problems,omitempty"`
	Samples    int                `json:"samples"`
	P999Us     float64            `json:"op_p999_us"`
	Metrics    map[string]float64 `json:"metrics"`
	// Slices holds the per-slice end-to-end metrics of the window.
	Slices []map[string]float64 `json:"slices"`
	// Setups holds the seconds each set-up of the repeat took.
	Setups []float64      `json:"setups"`
	Spans  map[string]int `json:"spans,omitempty"`
	// Path is the median timed op of a traced repeat split along its
	// blocking path; Layers adds the replayed calls that split it by layer.
	Path    []pathRow  `json:"path,omitempty"`
	PathUs  float64    `json:"path_us,omitempty"`
	PathOps int        `json:"path_ops,omitempty"`
	Layers  []layerRow `json:"layers,omitempty"`
}

// snapshot is everything read at a window boundary.
type snapshot struct {
	at       time.Time
	counters map[string]int64
	mallocs  uint64
	cpu      time.Duration
	ops      int64
	granted  uint64
	refused  uint64
	sent     [16]int64
}

// rusage reads the process's user+system CPU time and its peak resident
// set in MB (Linux reports ru_maxrss in KiB).
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

func (l *load) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ls := l.cl.leaseStats()
	cpu, _ := rusage()
	s := snapshot{
		at:       time.Now(),
		counters: l.cl.met.Snapshot(),
		mallocs:  ms.Mallocs,
		cpu:      cpu,
		ops:      l.done.Load(),
		granted:  ls.Granted,
		refused:  ls.Refused,
	}
	if l.cl.rec != nil {
		s.sent = l.cl.rec.sentSnapshot()
	}
	return s
}

// setup builds the cluster and prefills it: everything up to the start
// of warm-up.
func setup(w *workload, cfg childConfig, g *gen) (*load, time.Duration, error) {
	start := time.Now()
	cl, err := newCluster(w.transport, w.nodes, cfg.Traced)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &load{w: w, seed: cfg.Seed, cl: cl, g: g, ctx: ctx, cancel: cancel}
	if w.prefill != nil {
		if err := w.prefill(l); err != nil {
			cancel()
			_ = cl.close()
			return nil, 0, fmt.Errorf("%w: %s", err, strings.Join(l.failures, "; "))
		}
	}
	return l, time.Since(start), nil
}

// runChild runs one repeat in this process.
func runChild(cfg childConfig) (*childResult, error) {
	w := workloads[cfg.Workload]
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	g := &gen{seed: cfg.Seed, corruptEvery: cfg.CorruptEvery}

	l, took, err := setup(w, cfg, g)
	if err != nil {
		return nil, err
	}
	setups := []float64{took.Seconds()}
	defer l.cancel()

	res := &childResult{
		Workload: w.name, Transport: w.transport, Loop: w.loop,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: make(map[string]float64),
	}

	// Load: warm-up, then the measured window between two snapshots.
	l.t0 = time.Now()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		w.run(l)
	}()
	time.Sleep(cfg.Warmup)
	if l.cl.rec != nil {
		l.cl.rec.on.Store(true)
	}
	// The window is cut into slices, each between two snapshots.
	snaps := []snapshot{l.snapshot()}
	activePeak := 0
	end := snaps[0].at.Add(cfg.Window)
	for cut := snaps[0].at.Add(sliceLen); time.Now().Before(end); {
		if n := l.cl.leaseStats().Active; n > activePeak {
			activePeak = n
		}
		time.Sleep(20 * time.Millisecond)
		// A remainder shorter than half a slice joins the last one.
		if now := time.Now(); !now.Before(cut) && end.Sub(now) > sliceLen/2 {
			snaps = append(snaps, l.snapshot())
			cut = cut.Add(sliceLen)
		}
	}
	snaps = append(snaps, l.snapshot())
	a, b := snaps[0], snaps[len(snaps)-1]
	if l.cl.rec != nil {
		l.cl.rec.on.Store(false)
	}
	resident := l.cl.resident()
	l.stop.Store(true)
	<-ran

	// Output checks. Every failed op was counted as it happened; these
	// are the checks of the final state.
	res.Problems = append(res.Problems, w.verify(l)...)
	for _, inst := range l.cl.inst {
		if p := inst.LastPanic(); p != "" {
			res.Problems = append(res.Problems, fmt.Sprintf("%s recovered a panic: %s", inst.Addr(), p))
		}
	}
	_, res.Metrics["peak_rss_mb"] = rusage()
	if err := l.cl.close(); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.Attempted = l.attempted.Load()
	res.Failed = l.failed.Load()
	if res.Failed > 0 {
		res.Problems = append(res.Problems, l.failures...)
	}
	res.Correct = len(res.Problems) == 0

	// The remaining set-ups come after the load, so that what they leave
	// on the heap is not in the repeat's peak RSS.
	for spent := time.Duration(0); spent < cfg.SetupBudget && len(setups) < maxSetups; {
		again, took, err := setup(w, cfg, g)
		if err != nil {
			return nil, err
		}
		again.cancel()
		if err := again.cl.close(); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		spent += took
	}
	res.Setups = setups
	l.endToEnd(res, snaps)
	l.layerCounts(res, a, b, activePeak, resident)
	if cfg.Traced {
		rep := l.cl.rec.analyze(w.name == wFarmTCP)
		res.Spans, res.Path, res.PathUs, res.PathOps = rep.Counts, rep.Path, rep.PathUs, rep.PathOps
		for name, us := range rep.MedianUs {
			res.Metrics[name] = us
		}
		if err := writeSpans(filepath.Join(cfg.OutDir, "trace-"+w.name+".jsonl"), rep.spans); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		if err := replayLayers(w, cfg, res); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
	}
	return res, nil
}

// maxSetups bounds the set-ups of one repeat where one takes well under a
// millisecond.
const maxSetups = 200

// sliceLen is the length of one slice of the measured window. Each
// end-to-end rate, percentile and per-op cost is computed per slice and
// reported as the median over slices, so a phase in which the shared
// machine is slow moves the result only if it lasts for half the run.
const sliceLen = time.Second

// endToEnd computes the end-to-end metrics: one set per slice between
// consecutive snapshots, and their medians for the repeat as a whole.
func (l *load) endToEnd(res *childResult, snaps []snapshot) {
	m := res.Metrics
	// Samples by slice: a sample belongs to the slice it ended in.
	cuts := make([]int64, len(snaps))
	for i, s := range snaps {
		cuts[i] = int64(s.at.Sub(l.t0))
	}
	bucket := func(samples []sample) [][]float64 {
		out := make([][]float64, len(snaps)-1)
		for _, x := range samples {
			i := sort.Search(len(cuts), func(i int) bool { return cuts[i] > x.end }) - 1
			if i >= 0 && i < len(out) {
				out[i] = append(out[i], float64(x.dur)/1e3)
			}
		}
		return out
	}
	var all []sample
	for _, s := range l.samplers {
		for _, c := range s.chunks {
			all = append(all, c...)
		}
	}
	lat := bucket(all)
	late := bucket(l.lateNs)

	var pooled, pooledLate []float64
	for i := 0; i+1 < len(snaps); i++ {
		a, b := snaps[i], snaps[i+1]
		ops := float64(b.ops - a.ops)
		d := func(name string) float64 { return float64(b.counters[name] - a.counters[name]) }
		sort.Float64s(lat[i])
		res.Slices = append(res.Slices, map[string]float64{
			"ops_per_s":         ratio(ops, b.at.Sub(a.at).Seconds()),
			"op_p50_us":         percentile(lat[i], 0.50),
			"op_p90_us":         percentile(lat[i], 0.90),
			"op_p99_us":         percentile(lat[i], 0.99),
			"msgs_per_op":       ratio(d(trace.CtrMsgsSent), ops),
			"wire_bytes_per_op": ratio(d(trace.CtrBytesSent), ops),
			"cpu_us_per_op":     ratio(float64((b.cpu - a.cpu).Microseconds()), ops),
			"allocs_per_op":     ratio(float64(b.mallocs-a.mallocs), ops),
		})
		pooled = append(pooled, lat[i]...)
		pooledLate = append(pooledLate, late[i]...)
	}
	for name := range res.Slices[0] {
		var vals []float64
		for _, sl := range res.Slices {
			vals = append(vals, sl[name])
		}
		m[name] = median(vals)
	}
	sort.Float64s(pooled)
	sort.Float64s(pooledLate)
	res.Samples = len(pooled)
	res.P999Us = percentile(pooled, 0.999)
	m[failRatio] = ratio(float64(res.Failed), float64(res.Attempted))
	m["gen.late_p99_us"] = percentile(pooledLate, 0.99)
}

// layerCounts computes the per-layer metrics that are counts: snapshot
// differences of trace.Metrics and the lease managers over the window.
func (l *load) layerCounts(res *childResult, a, b snapshot, activePeak, resident int) {
	m := res.Metrics
	ops := float64(b.ops - a.ops)
	kops := ops / 1e3
	d := func(name string) float64 { return float64(b.counters[name] - a.counters[name]) }
	sent := func(t wire.Type) float64 { return float64(b.sent[t] - a.sent[t]) }

	m["lease.grants_per_op"] = ratio(float64(b.granted-a.granted), ops)
	m["lease.refused"] = float64(b.refused - a.refused)
	m["lease.active_peak"] = float64(activePeak)

	m["store.resident"] = float64(resident)
	taken, back := d(trace.CtrTuplesTaken), d(trace.CtrTuplesReinstated)
	m["store.hold_accept_ratio"] = ratio(taken, taken+back)

	m["transport.frames_per_flush"] = ratio(d(trace.CtrBatchedFrames), d(trace.CtrBatchFlushes))
	m["transport.acks_coalesced_ratio"] = ratio(d(trace.CtrAcksCoalesced), sent(wire.TAck))
	m["transport.retries_per_kop"] = ratio(d(trace.CtrRetries), kops)
	m["transport.send_errors"] = d(trace.CtrSendErrors)
	m["transport.inbox_overflow"] = d(trace.CtrInboxOverflow)

	m["discovery.contacts_per_op"] = ratio(sent(wire.TOp), ops)
	m["discovery.rounds_per_kop"] = ratio(d(trace.CtrDiscoverRounds), kops)
	m["discovery.evictions"] = d(trace.CtrListEvictions)

	logical := d(trace.CtrOpsRd) + d(trace.CtrOpsRdp) + d(trace.CtrOpsIn) + d(trace.CtrOpsInp)
	m["core.remote_hit_ratio"] = ratio(d(trace.CtrOpsRemoteHit), logical)
	m["core.expired_ratio"] = ratio(d(trace.CtrOpsExpired), logical)
	m["core.hedges_per_kop"] = ratio(d(trace.CtrHedges), kops)
	m["core.rearms_per_kop"] = ratio(d(trace.CtrRearms), kops)
	m["core.busy_per_kop"] = ratio(d(trace.CtrBusyReceived), kops)
	sheds := d(trace.CtrGovShedProbes) + d(trace.CtrGovShedWaits) + d(trace.CtrGovShedOuts) +
		d(trace.CtrGovQuotaSheds) + d(trace.CtrGovQueueSheds)
	m["core.gov_sheds_per_kop"] = ratio(sheds, kops)
	m["core.dedup_drops_per_kop"] = ratio(d(trace.CtrDedupDrops), kops)
	m["core.panics"] = d(trace.CtrPanics)

	// Every counter but the byte totals and the one gauge advances by one
	// per event, so the sum of the deltas is the number of counted events.
	var incs float64
	for name := range b.counters {
		if strings.Contains(name, "bytes") || name == trace.CtrCapsBaselinePeers {
			continue
		}
		incs += d(name)
	}
	m["trace.incs_per_op"] = ratio(incs, ops)
}
