// Command tiamat-bench regenerates the reproduction experiments indexed
// in DESIGN.md and records them in EXPERIMENTS.md. Each experiment prints
// the table/series the paper's corresponding claim implies.
//
// Usage:
//
//	tiamat-bench [-quick] [-chaos] [-cpuprofile f] [-memprofile f] [id ...]
//
// With no ids, every experiment runs. Ids: E1 E2 E3 E4 E5 E6 E7 E8 E9
// E10 T1 T2 X1 X2. -chaos injects loss, duplication, and reordering
// into the simulated network so the experiments (E2/E9/E10 in
// particular) exercise the retry and dedup machinery; affected tables
// report the retransmission and duplicate-suppression counts.
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, for digging into hot paths a `make perf` layer table
// surfaces.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tiamat/internal/harness"
)

type experiment struct {
	id   string
	desc string
	run  func(harness.Scale) (*harness.Table, error)
}

func main() {
	// The body lives in run so the profile-writing defers execute before
	// the process exits.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run reduced-scale experiments")
	list := flag.Bool("list", false, "list experiment ids and exit")
	chaos := flag.Bool("chaos", false, "inject loss/duplication/reordering into the simulated network")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the experiment run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *chaos {
		f := harness.DefaultChaos()
		harness.SetChaos(&f)
		fmt.Printf("chaos enabled: loss=%.2f dup=%.2f reorder=%.2f\n\n", f.Loss, f.Dup, f.Reorder)
	}

	experiments := []experiment{
		{"E1", "Figure 1 logical spaces", func(harness.Scale) (*harness.Table, error) { return harness.E1Figure1() }},
		{"E2", "responder-list cache vs multicast", harness.E2ResponderList},
		{"E3", "lease reclamation vs orphans", harness.E3LeaseReclaim},
		{"E4", "web client/proxy application", harness.E4WebProxy},
		{"E5", "fractal render farm application", harness.E5Fractal},
		{"E6", "scalability vs LIME-style federation", harness.E6FederatedVsTiamat},
		{"E7", "replication cost vs L2imbo-style DTS", harness.E7ReplicaCost},
		{"E8", "lookup cost vs Peers-style flooding", harness.E8FloodVsList},
		{"E9", "availability vs centralised space", harness.E9Availability},
		{"E10", "goodput under churn", harness.E10Churn},
		{"T1", "local operation micro-costs", harness.T1LocalOps},
		{"T2", "lease negotiation micro-costs", harness.T2LeaseNegotiation},
		{"X1", "backbone relay routing (future work)", harness.X1Backbone},
		{"X2", "adaptive discovery (future work)", harness.X2AdaptiveDiscovery},
		{"C1", "crash injection and restart/rejoin", harness.C1Crash},
		{"C2", "overload governance soak", harness.C2Overload},
		{"C3", "partition/mobility churn soak", harness.C3Mobility},
		{"C4", "gray-failure soak: limp mode, hedged lookups", harness.C4Gray},
		{"C5", "replica availability soak: node kills, failover takes, anti-entropy repair", harness.C5Replica},
		{"C6", "mixed-version soak: capability gating, rolling upgrade, upgrade-then-kill", harness.C6Upgrade},
		{"AB1", "ablation: contact fanout", harness.AB1ContactFanout},
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return 0
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	scale := harness.Full
	if *quick {
		scale = harness.Quick
	}

	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		table, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed = true
			continue
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		return 1
	}
	return 0
}
