package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: run spawns
// os.Executable with -child for every repeat, and here that is the test
// binary. The smoke tests so go through the same spawn, child and fold
// path as a real run.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	// A race-enabled process sleeps one second at exit, nine seconds over
	// the children of these tests. A race is reported, and fails the
	// child, when it happens; the sleep only waits for other threads.
	if os.Getenv("GORACE") == "" {
		os.Setenv("GORACE", "atexit_sleep_ms=0")
	}
	os.Exit(m.Run())
}

func smokeOptions(t *testing.T) options {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return options{spec: sp, workloads: sp.workloadNames(), seed: 1, seconds: 0.2, repeats: 1, warmup: 50 * time.Millisecond,
		trace: traceBoth, quick: true}
}

// TestSmoke runs every workload for 200 ms, untraced and traced, and
// checks that everything BENCHMARK.json names is produced: each workload,
// each end-to-end and per-layer metric, with a finite value and the unit
// the contract states. A name the code does not compute fails the run.
func TestSmoke(t *testing.T) {
	o := smokeOptions(t)
	sp := o.spec
	rf, err := run(o, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	report(&text, rf, o)
	for _, w := range sp.Workloads {
		wr := rf.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("workload %s of BENCHMARK.json did not run", w.Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", w.Name, wr.Correct, wr.Failed, wr.Attempted, wr.Problems)
		}
		for _, m := range sp.EndToEnd {
			s, ok := wr.EndToEnd[m.Name]
			if !ok || !isFinite(s.Value) {
				t.Errorf("%s: end-to-end metric %s missing or not finite: %v", w.Name, m.Name, s.Value)
			}
		}
		for _, m := range sp.PerLayer {
			v, ok := wr.PerLayer[m.Name]
			if !ok || !isFinite(v) {
				t.Errorf("%s: per-layer metric %s missing or not finite: %v", w.Name, m.Name, v)
			}
		}
		if len(wr.Layers) == 0 || wr.PathOps == 0 {
			t.Errorf("%s: the traced repeat produced no layer table", w.Name)
		}
		if !strings.Contains(text.String(), "== "+w.Name) {
			t.Errorf("report does not print workload %s", w.Name)
		}

		// The line the driver reads, in both of its modes.
		for mode, want := range map[int][]specMetric{traceOff: sp.EndToEnd, traceOnly: sp.PerLayer} {
			var line bytes.Buffer
			driverLine(&line, sp, wr, mode)
			var got struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatalf("%s: driver line: %v", w.Name, err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s: driver line of -trace %d has %d metrics, want %d", w.Name, mode, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if got.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s: driver line lacks %s in %s", w.Name, m.Name, m.Unit)
				}
			}
		}
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !strings.Contains(text.String(), m.Name) {
			t.Errorf("report does not print metric %s", m.Name)
		}
	}
}

// TestCorruptPayloadTripsCheck writes a wrong payload now and then and
// expects the output check to notice.
func TestCorruptPayloadTripsCheck(t *testing.T) {
	o := smokeOptions(t)
	o.workloads, o.trace, o.corruptEvery = []string{wTakePair}, traceOff, 50
	rf, err := run(o, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	wr := rf.Workloads[wTakePair]
	if wr.Correct || wr.Failed == 0 {
		t.Fatalf("corrupted payloads went unnoticed: correct=%v failed=%d of %d", wr.Correct, wr.Failed, wr.Attempted)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
