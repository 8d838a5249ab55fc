// Package harness implements the reproduction experiments indexed in
// DESIGN.md: one function per experiment (E1–E10, T1–T2, X1–X2), each
// returning a Table with the same rows/series the paper's claims imply.
// cmd/tiamat-bench prints them; the repository-root benchmarks run
// reduced-scale versions under testing.B.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"tiamat/clock"
	"tiamat/internal/core"
	"tiamat/trace"
	"tiamat/transport/memnet"
	"tiamat/wire"
)

// Table is one experiment's result: aligned columns plus free-form notes.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes: Quick for benchmarks and CI, Full for
// the paper-shape runs recorded in EXPERIMENTS.md.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// cluster is a set of Tiamat instances over one simulated network.
type cluster struct {
	clk  clock.Clock
	net  *memnet.Network
	met  *trace.Metrics
	inst []*core.Instance
}

type clusterOpts struct {
	n       int
	virtual *clock.Virtual // nil = real clock
	mutate  func(idx int, cfg *core.Config)
	netOpts []memnet.Option
}

// chaosFaults, when non-nil, is injected into every cluster built by
// newCluster so the experiments run over a lossy, duplicating,
// reordering network. cmd/tiamat-bench sets it via -chaos.
var chaosFaults *memnet.Faults

// SetChaos enables (or, with nil, disables) fault injection for
// subsequently built clusters.
func SetChaos(f *memnet.Faults) { chaosFaults = f }

// DefaultChaos is the fault mix -chaos applies: enough loss and
// duplication to exercise every retry and dedup path without drowning
// the experiments.
func DefaultChaos() memnet.Faults {
	return memnet.Faults{Loss: 0.1, Dup: 0.1, Reorder: 0.2}
}

// chaosSummary records the recovery work done under -chaos so tables
// show the retry/dedup machinery earning its keep. No-op otherwise.
func chaosSummary(t *Table, retries, dedups int64) {
	f := chaosFaults
	if f == nil {
		return
	}
	t.AddNote("chaos: loss=%.2f dup=%.2f reorder=%.2f — %d retransmissions, %d duplicate frames suppressed",
		f.Loss, f.Dup, f.Reorder, retries, dedups)
}

func addr(i int) wire.Addr { return wire.Addr(fmt.Sprintf("n%02d", i)) }

func newCluster(o clusterOpts) (*cluster, error) {
	met := &trace.Metrics{}
	var clk clock.Clock = clock.Real{}
	if o.virtual != nil {
		clk = o.virtual
	}
	opts := append([]memnet.Option{memnet.WithClock(clk), memnet.WithMetrics(met)}, o.netOpts...)
	if chaosFaults != nil {
		opts = append(opts, memnet.WithFaults(*chaosFaults), memnet.WithSeed(7))
	}
	net := memnet.New(opts...)
	c := &cluster{clk: clk, net: net, met: met}
	for i := 0; i < o.n; i++ {
		ep, err := net.Attach(addr(i))
		if err != nil {
			c.close()
			return nil, err
		}
		cfg := core.Config{Endpoint: ep, Clock: clk, Metrics: met}
		if chaosFaults != nil {
			// Tight recovery timers keep chaos runs within experiment
			// wall-time budgets; defaults target real networks.
			cfg.ContactTimeout = 30 * time.Millisecond
		}
		if o.mutate != nil {
			o.mutate(i, &cfg)
		}
		inst, err := core.New(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.inst = append(c.inst, inst)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, i := range c.inst {
		i.Close()
	}
	c.net.Close()
}

// soakContactTimeout is the ContactTimeout of the churn and kill soaks.
// Every recovery timer of their nodes derives from it (DESIGN.md §7,
// "Node timers"): hold grace 8×, orphan grace 12×, both sweeps 4×.
const soakContactTimeout = 30 * time.Millisecond

// soakTimers is the config mutation the churn and kill soaks (C3, C5, C6)
// share: continuous discovery handles partition-wide resyncs, and a short
// contact timeout shrinks the grace, suspicion and repair windows that
// reconcile holds and waits stranded by a fault to well inside a run
// measured in seconds.
func soakTimers(idx int, cfg *core.Config) {
	cfg.ContinuousDiscovery = true
	cfg.RediscoverInterval = 100 * time.Millisecond
	cfg.ContactTimeout = soakContactTimeout
	cfg.RetrySeed = uint64(idx) + 1 // reproducible retry timing
}

// goroutineBaseline reads the goroutine count before a soak builds its
// clusters. The returned check, called once they are closed, waits up to
// 2s for the count to come back to within two of it.
func goroutineBaseline() (leaked func() error) {
	before := runtime.NumGoroutine()
	return func() error {
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC()
			n := runtime.NumGoroutine()
			if n <= before+2 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("goroutine leak — %d before, %d after close", before, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// percentile returns the p-th percentile of lat (0 when empty).
func percentile(lat []time.Duration, p int) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*p/100]
}

// fmtF formats a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtD formats a duration rounded for tables.
func fmtD(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }

// fmtI formats an int.
func fmtI(v int64) string { return fmt.Sprintf("%d", v) }
