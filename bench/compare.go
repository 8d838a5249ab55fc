package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain applies the bounds of BENCHMARK.json to every pairing of
// end-to-end metric and workload in two result files, a the parent and b
// the change. It prints one block per workload, one row per metric, and
// returns 1 when any pairing regressed.
//
// Two files measured for different lengths, or one with idle CPUs kept
// awake and one without, are not compared: the conditions are set by the
// benchmark and are the same on both sides.
func compareMain(sp *spec, aPath, bPath string, stdout, stderr io.Writer) int {
	a, err := readResult(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "tiamat-benchmark:", err)
		return 2
	}
	b, err := readResult(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "tiamat-benchmark:", err)
		return 2
	}
	if a.Seconds != b.Seconds || a.KeptAwake != b.KeptAwake {
		fmt.Fprintf(stderr, "tiamat-benchmark: not comparable: %s measured %v s per workload (idle CPUs kept awake: %v), %s %v s (%v)\n",
			aPath, a.Seconds, a.KeptAwake, bPath, b.Seconds, b.KeptAwake)
		return 2
	}
	regressed := false
	for _, name := range sp.workloadNames() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		fmt.Fprintf(stdout, "== %s\n", name)
		fmt.Fprintf(stdout, "  %-20s %14s %14s %9s %7s %8s  %s\n", "metric", "a", "b", "worse by", "bound", "spread", "verdict")
		for _, m := range sp.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloor
			}
			v := verdict(sa, sb, m.Better == "higher", m.Bound, floor)
			regressed = regressed || v.word == "REGRESSED"
			fmt.Fprintf(stdout, "  %-20s %14.4f %14.4f %8.2f%% %6.1f%% %7.2f%%  %s\n",
				m.Name, sa.Value, sb.Value, 100*v.worse, 100*m.Bound, 100*v.spread, v.word)
		}
		for _, name := range ungated {
			sa, sb := wa.Ungated[name], wb.Ungated[name]
			v := verdict(sa, sb, false, 1, 0)
			fmt.Fprintf(stdout, "  %-20s %14.4f %14.4f %8.2f%% %7s %7.2f%%  (not gated)\n", name, sa.Value, sb.Value, 100*v.worse, "", 100*v.spread)
		}
		// fail_ratio is 0 on a healthy run, so its bound is absolute.
		word := "ok"
		if wb.FailRatio > wa.FailRatio+failRatioBound {
			word, regressed = "REGRESSED", true
		}
		fmt.Fprintf(stdout, "  %-20s %14.6f %14.6f %9s %7s %8s  %s\n", failRatio, wa.FailRatio, wb.FailRatio, "", "+0.001", "", word)
	}
	if regressed {
		return 1
	}
	return 0
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// setupFloor is the absolute part of setup_s's bound, in seconds: a
// cluster of two memnet nodes is built in 0.2 ms, and a quarter of that
// is noise. BENCHMARK.json has no field for it, so it lives here.
const setupFloor = 0.050

type verdictOf struct {
	word   string
	worse  float64 // how much worse b's value is, as a share of a's
	spread float64 // the wider interquartile range of the two, as a share of a's value
}

// verdict compares one metric on one workload, a the parent and b the
// change. floor is an absolute difference, in the metric's unit, below
// which b is never worse.
//
// The values compared are the ones the run reports (summary.Value).
// "REGRESSED": b's is worse than a's by more than the bound, and
// the runs show it: the spread is within the bound, or the values are
// further apart than bound plus spread, or every run of b is worse than
// every run of a. "unresolved" replaces "ok", never "REGRESSED": the
// spread exceeds the bound, so a value inside the bound does not show
// the metric unchanged, unless every run of b reads better than every run
// of a.
func verdict(a, b summary, higherBetter bool, bound, floor float64) verdictOf {
	base := math.Abs(a.Value)
	v := verdictOf{
		worse:  ratio(b.Value-a.Value, base),
		spread: ratio(math.Max(a.Q3-a.Q1, b.Q3-b.Q1), base),
	}
	if higherBetter {
		v.worse = -v.worse
	}
	resolved := v.spread <= bound
	switch {
	case floor > 0 && v.worse*base <= floor:
		v.word = "ok"
	case v.worse > bound && (resolved || v.worse > bound+v.spread || allBetter(b.Runs, a.Runs, higherBetter)):
		v.word = "REGRESSED"
	case !resolved && !allBetter(a.Runs, b.Runs, higherBetter):
		v.word = "unresolved"
	default:
		v.word = "ok"
	}
	return v
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
