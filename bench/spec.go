// Package bench is the repository benchmark. It drives Tiamat instances
// through their public API on four workloads, measures what a user of a
// node would see (end-to-end metrics), and attributes the cost to layers
// from outside: counter snapshots, spans recorded by a bench-owned
// endpoint decorator, and a replay that calls each layer's functions
// directly with the inputs the workload generated. README.md defines
// every name used here.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Workload names. BENCHMARK.json lists them in the round-robin order the
// full run interleaves them.
const (
	wTakePair   = "take_pair"
	wDenseMixed = "dense_mixed"
	wWalk4TCP   = "walk4_tcp"
	wFarmTCP    = "farm_tcp"
)

// failRatio is the tenth end-to-end metric. It is 0 on a healthy run, so
// it cannot carry a relative bound in BENCHMARK.json; the driver sees it
// as failed/attempted and -compare applies an absolute bound.
const (
	failRatio      = "fail_ratio"
	failRatioBound = 0.001
)

// spec is the part of BENCHMARK.json, the contract the driver checks,
// that the command reads. It is the one list of workloads, metric names,
// units and bounds: the run reports what it names, in its order, and
// fails on a name the code does not compute.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchDir returns the benchmark's own directory, whether the process
// runs in the repository root (run.sh) or in bench/ (go run, go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec() (*spec, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	names := make([]string, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}
