// Command tiamat-benchmark is the repository benchmark: four workloads,
// the end-to-end metrics a user of a Tiamat node would see, and a
// per-layer attribution measured from outside the program under test.
// See ../../README.md for the metric and workload definitions.
package main

import (
	"os"

	"tiamat/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
