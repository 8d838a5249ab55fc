package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Trace modes. The driver passes 0 or 1; a person running the command
// without -trace gets both.
const (
	traceOff  = 0 // end-to-end metrics only, from untraced repeats
	traceOnly = 1 // per-layer metrics only: one untraced and one traced repeat
	traceBoth = 2
)

// ungated are the per-slice metrics that are printed with their spread and
// carry no bound: over ten runs they spread further than any bound the
// contract allows (README, findings 6 and 11). -trace 1 reports the first
// as the per-layer metric proc.cpu_us_per_op.
var ungated = []string{"cpu_us_per_op", "op_p90_us", "op_p99_us"}

const procCPU = "proc.cpu_us_per_op"

// fastQuartile names the metrics reported as the quartile of their slices
// on the fast side instead of the median: the times and the rate. What
// disturbs them on a shared machine (a vCPU that is not running while the
// guest's clocks are, a neighbour on the core's other thread) only ever
// slows a slice down, so the slow half of the slices says how busy the
// machine was and the fast quartile says what the program costs; over ten
// runs it spread a quarter less than the median did, on the closed loops up
// to a half (README, finding 11).
// A change to the program moves every slice. Counts, sizes and the tail
// percentiles stay medians.
var fastQuartile = map[string]int{
	"setup_s":       pickLow,
	"ops_per_s":     pickHigh,
	"op_p50_us":     pickLow,
	"cpu_us_per_op": pickLow,
}

// maxTracedWindow keeps a traced repeat within the recorder's event cap
// at the fastest workload's rate.
const maxTracedWindow = 5 * time.Second

// warmup precedes every measured window; windowTarget is the length a
// run's measured seconds are cut into, one repeat (one process) each.
// Neither is a flag: two result files then differ in nothing but -seconds,
// which -compare checks.
const (
	warmup       = time.Second
	windowTarget = 6 * time.Second
)

type options struct {
	spec      *spec
	workloads []string
	seed      int64
	seconds   float64
	trace     int
	out       string
	// The smoke test alone sets the rest, to fit a run into 200 ms.
	repeats      int
	warmup       time.Duration
	quick        bool
	corruptEvery int64
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Transport string             `json:"transport"`
	Loop      string             `json:"loop"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Samples   int                `json:"samples"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	FailRatio float64            `json:"fail_ratio"`
	// Ungated holds the process's CPU time per op and the higher percentiles
	// of the timed op. They are printed, not gated: their run-to-run spread
	// on this machine exceeds any bound the contract allows.
	Ungated    map[string]summary `json:"ungated,omitempty"`
	P999Us     float64            `json:"op_p999_us,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Layers     []layerRow         `json:"layers,omitempty"`
	Spans      map[string]int     `json:"spans,omitempty"`
	PathUs     float64            `json:"path_us,omitempty"`
	PathOps    int                `json:"path_ops,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
}

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Repeats   int                        `json:"repeats"`
	Go        string                     `json:"go"`
	NumCPU    int                        `json:"num_cpu"`
	KeptAwake bool                       `json:"kept_awake"` // idle CPUs spun instead of halting (awake.go)
	Workloads map[string]*workloadResult `json:"workloads"`
}

// Main is the command. It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tiamat-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: take_pair, dense_mixed, walk4_tcp, farm_tcp or all")
		seed     = fs.Int64("seed", 1, "seed of keys, op mix, holder choice and payload bytes")
		seconds  = fs.Float64("seconds", 30, "measured seconds per workload, shared by one repeat (one process) per 6 seconds")
		traceM   = fs.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only (traced run + layer replay); 2: both")
		out      = fs.String("out", "", "result file (default <bench>/out/result.json)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		child    = fs.String("child", "", "internal: run one repeat described by this JSON and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, stdout, stderr)
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "tiamat-benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: tiamat-benchmark -compare a.json b.json")
			return 2
		}
		return compareMain(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || *traceM < traceOff || *traceM > traceBoth {
		fmt.Fprintln(stderr, "need -seconds > 0 and -trace 0, 1 or 2")
		return 2
	}
	o := options{spec: sp, seed: *seed, seconds: *seconds, trace: *traceM, out: *out, warmup: warmup,
		repeats: max(1, int(math.Round(*seconds/windowTarget.Seconds())))}
	if *workload == "all" {
		o.workloads = sp.workloadNames()
	} else if workloads[*workload] != nil {
		o.workloads = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	rf, err := run(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tiamat-benchmark:", err)
		return 1
	}
	report(stdout, rf, o)
	if o.out == "" {
		o.out = filepath.Join(benchDir(), "out", "result.json")
	}
	if err := writeJSON(o.out, rf); err != nil {
		fmt.Fprintln(stderr, "tiamat-benchmark:", err)
		return 1
	}
	ok := true
	for _, w := range rf.Workloads {
		ok = ok && w.Correct
	}
	if len(o.workloads) == 1 {
		driverLine(stdout, sp, rf.Workloads[o.workloads[0]], o.trace)
	}
	if !ok {
		fmt.Fprintln(stderr, "tiamat-benchmark: output checks failed")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func childMain(cfgJSON string, stdout, stderr io.Writer) int {
	var cfg childConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		fmt.Fprintln(stderr, "child config:", err)
		return 2
	}
	res, err := runChild(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// spawn runs one repeat as a child process with a wall-clock limit, so a
// hung repeat fails the run instead of hanging it.
func spawn(cfg childConfig, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	limit := cfg.Warmup + cfg.Window + 60*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: repeat killed after %v", cfg.Workload, limit)
		}
		return nil, fmt.Errorf("%s: repeat failed: %w", cfg.Workload, err)
	}
	var res childResult
	if err := json.Unmarshal(outBuf.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: repeat result: %w", cfg.Workload, err)
	}
	return &res, nil
}

// run makes every repeat and folds them into the result file. Untraced
// repeats are interleaved round-robin across workloads (w1 w2 w3 w4 w1
// ...), so a slow phase of the shared machine is spread over all of them
// and not charged to one.
func run(o options, stderr io.Writer) (*resultFile, error) {
	awake := true
	stop, err := keepAwake()
	if err != nil {
		// The run goes on, with the spread of a machine whose CPUs halt.
		fmt.Fprintln(stderr, "tiamat-benchmark:", err)
		awake = false
	}
	defer stop()
	outDir := filepath.Join(benchDir(), "out")
	window := time.Duration(o.seconds / float64(o.repeats) * float64(time.Second))
	base := childConfig{Seed: o.seed, Warmup: o.warmup, Window: window, SetupBudget: 300 * time.Millisecond, Quick: o.quick,
		CorruptEvery: o.corruptEvery, OutDir: outDir}
	if o.quick {
		base.SetupBudget = 0
	}

	untraced := make(map[string][]*childResult)
	if o.trace != traceOnly {
		for r := 0; r < o.repeats; r++ {
			for _, name := range o.workloads {
				cfg := base
				cfg.Workload = name
				res, err := spawn(cfg, stderr)
				if err != nil {
					return nil, err
				}
				untraced[name] = append(untraced[name], res)
			}
		}
	}
	traced := make(map[string]*childResult)
	if o.trace != traceOff {
		for _, name := range o.workloads {
			cfg := base
			cfg.Workload = name
			if o.trace == traceOnly {
				// The whole budget is two repeats: untraced, traced.
				cfg.Window = time.Duration(o.seconds / 2 * float64(time.Second))
			}
			if cfg.Window > maxTracedWindow {
				cfg.Window = maxTracedWindow
			}
			if o.trace == traceOnly {
				res, err := spawn(cfg, stderr)
				if err != nil {
					return nil, err
				}
				untraced[name] = append(untraced[name], res)
			}
			cfg.Traced = true
			res, err := spawn(cfg, stderr)
			if err != nil {
				return nil, err
			}
			traced[name] = res
		}
	}

	rf := &resultFile{Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats, Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), KeptAwake: awake, Workloads: make(map[string]*workloadResult)}
	for _, name := range o.workloads {
		wr, err := fold(o.spec, untraced[name], traced[name], o.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rf.Workloads[name] = wr
	}
	return rf, nil
}

// pooled returns one metric over the untraced repeats: the slices of all
// of them for a per-slice metric, every set-up made for setup_s, one value
// per repeat for peak_rss_mb.
func pooled(untraced []*childResult, name string) []float64 {
	var runs []float64
	for _, r := range untraced {
		if name == "setup_s" {
			runs = append(runs, r.Setups...)
		} else if _, perSlice := r.Slices[0][name]; perSlice {
			for _, sl := range r.Slices {
				runs = append(runs, sl[name])
			}
		} else if v, ok := r.Metrics[name]; ok {
			runs = append(runs, v)
		}
	}
	return runs
}

// fold reduces the repeats of one workload: each end-to-end metric to
// its median (a time to its fast quartile) and quartiles over the slices
// of the untraced repeats, the per-layer metrics to the traced repeat's
// values. A metric BENCHMARK.json names and no repeat computed is an error.
func fold(sp *spec, untraced []*childResult, traced *childResult, mode int) (*workloadResult, error) {
	all := append([]*childResult(nil), untraced...)
	if traced != nil {
		all = append(all, traced)
	}
	wr := &workloadResult{Transport: all[0].Transport, Loop: all[0].Loop, GOMAXPROCS: all[0].GOMAXPROCS, Correct: true}
	for _, r := range all {
		wr.Correct = wr.Correct && r.Correct
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Problems = append(wr.Problems, r.Problems...)
	}
	wr.FailRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
	wr.Ungated = make(map[string]summary)
	for _, name := range ungated {
		wr.Ungated[name] = summarize(pooled(untraced, name), fastQuartile[name])
	}
	if mode != traceOnly {
		wr.EndToEnd = make(map[string]summary)
		for _, def := range sp.EndToEnd {
			runs := pooled(untraced, def.Name)
			if len(runs) == 0 {
				return nil, fmt.Errorf("end-to-end metric %s of BENCHMARK.json is not computed", def.Name)
			}
			wr.EndToEnd[def.Name] = summarize(runs, fastQuartile[def.Name])
		}
		var p999 []float64
		for _, r := range untraced {
			wr.Samples += r.Samples
			p999 = append(p999, r.P999Us)
		}
		wr.P999Us = median(p999)
	}
	if traced != nil {
		// Two per-layer metrics come from the untraced repeats: what the
		// process costs without tracing, and what tracing adds to it.
		traced.Metrics[procCPU] = wr.Ungated["cpu_us_per_op"].Value
		traced.Metrics["tracing.overhead_ratio"] = ratio(traced.Metrics["ops_per_s"], median(pooled(untraced, "ops_per_s")))
		wr.PerLayer = make(map[string]float64)
		for _, def := range sp.PerLayer {
			v, ok := traced.Metrics[def.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s of BENCHMARK.json is not computed", def.Name)
			}
			wr.PerLayer[def.Name] = v
		}
		wr.Layers, wr.Spans, wr.PathUs, wr.PathOps = traced.Layers, traced.Spans, traced.PathUs, traced.PathOps
	}
	return wr, nil
}

// driverLine prints the one JSON object the driver reads, as the last
// line of standard output.
func driverLine(w io.Writer, sp *spec, wr *workloadResult, mode int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if mode != traceOnly {
		for _, def := range sp.EndToEnd {
			metrics[def.Name] = value{wr.EndToEnd[def.Name].Value, def.Unit}
		}
	}
	if mode != traceOff {
		for _, def := range sp.PerLayer {
			metrics[def.Name] = value{wr.PerLayer[def.Name], def.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil { // only a non-finite value can do this
		fmt.Fprintf(w, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`+"\n")
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// --- report ------------------------------------------------------------------

func report(w io.Writer, rf *resultFile, o options) {
	fmt.Fprintf(w, "tiamat-benchmark  seed=%d  %s  cpus=%d  idle CPUs kept awake: %v  %d repeat(s) x (%v warm-up + %.2fs measured)\n",
		rf.Seed, rf.Go, rf.NumCPU, rf.KeptAwake, rf.Repeats, o.warmup, rf.Seconds/float64(rf.Repeats))
	for _, name := range o.workloads {
		wr := rf.Workloads[name]
		link := wr.Transport
		if link == transportNetudp {
			link += " over loopback TCP"
		}
		fmt.Fprintf(w, "\n== %s  (%s, %s loop, GOMAXPROCS=%d)\n", name, link, wr.Loop, wr.GOMAXPROCS)
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "  %-20s %14s  %-5s  %14s %14s %14s  %7s\n", "end-to-end", "value", "unit", "q1", "median", "q3", "spread")
			row := func(name, unit string, s summary, note string) {
				fmt.Fprintf(w, "  %-20s %14.4f  %-5s  %14.4f %14.4f %14.4f  %6.2f%%%s\n", name, s.Value, unit, s.Q1, s.Median, s.Q3, 100*s.spread(), note)
			}
			for _, def := range o.spec.EndToEnd {
				row(def.Name, def.Unit, wr.EndToEnd[def.Name], "")
			}
			for _, name := range ungated {
				row(name, "us", wr.Ungated[name], "  (printed, not gated)")
			}
			fmt.Fprintf(w, "  %-20s %14.4f  %-5s  (printed, not gated; %d samples pooled)\n", "op_p999_us", wr.P999Us, "us", wr.Samples)
		}
		fmt.Fprintf(w, "  %-20s %14.6f  %-5s  (%d failed of %d attempted)\n", failRatio, wr.FailRatio, "ratio", wr.Failed, wr.Attempted)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
		}
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "  per-layer (traced repeat + layer replay)\n")
		for _, def := range o.spec.PerLayer {
			fmt.Fprintf(w, "    %-40s %16.4f  %s\n", def.Name, wr.PerLayer[def.Name], def.Unit)
		}
		keys := make([]string, 0, len(wr.Spans))
		for k := range wr.Spans {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  spans recorded:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, wr.Spans[k])
		}
		fmt.Fprintln(w)
		reportLayers(w, wr)
	}
}

// reportLayers prints the layer table: the spans on the blocking path of
// the timed op against its median, then the replayed calls that split
// those spans by layer, then one figure per layer and the remainder.
func reportLayers(w io.Writer, wr *workloadResult) {
	p50 := wr.PathUs
	pct := func(us float64) float64 { return 100 * ratio(us, p50) }
	fmt.Fprintf(w, "  layer table: the median timed op of the traced repeat, %.2f us (mean of the %d ops at the 45th..55th percentile)\n", p50, wr.PathOps)
	fmt.Fprintf(w, "    %-10s %-48s %9s %12s %10s %7s\n", "layer", "what", "calls/op", "ns/call", "us/op", "share")
	for _, src := range []string{"trace", "replay"} {
		if src == "replay" {
			fmt.Fprintf(w, "    of which, by direct calls into the layers (inside the spans above):\n")
		}
		for _, r := range wr.Layers {
			if r.Source == src {
				fmt.Fprintf(w, "    %-10s %-48s %9.2f %12.1f %10.3f %6.1f%%\n", r.Layer, r.What, r.Calls, r.NsPerCall, r.Us, pct(r.Us))
			}
		}
	}
	shares, spans := layerShares(wr.Layers)
	names := make([]string, 0, len(shares))
	for k := range shares {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Fprintf(w, "    per layer:")
	for _, k := range names {
		fmt.Fprintf(w, "  %s %.2f us (%.1f%%)", k, shares[k], pct(shares[k]))
	}
	rest := p50 - spans
	if math.Abs(rest) < 0.005 { // rounding of the sums, not a remainder
		rest = 0
	}
	fmt.Fprintf(w, "\n    attributed %.2f us (%.1f%%), unattributed remainder %.2f us (%.1f%%)\n",
		spans, pct(spans), rest, pct(rest))
}
