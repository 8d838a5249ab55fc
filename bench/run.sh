#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source and runs it from the repository
# root. In a directory that does not hold the rest of the repository the
# build fails, and so does this script, before any result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# A run reads and writes nothing outside its checkout: the build cache,
# GOPATH (the module cache is under it) and the toolchain's config
# directory (telemetry counters, `go env -w` file) move into .bench_build/,
# and the toolchain is the installed one, never a download.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C "$root/bench" -o "$build/tiamat-benchmark" ./cmd/tiamat-benchmark
cd "$root"
exec "$build/tiamat-benchmark" "$@"
