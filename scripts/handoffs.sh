#!/usr/bin/env bash
# handoffs.sh — goroutine hand-offs and objects per op of the four root
# remote benchmarks, on the merge base and on the working tree, in
# alternating rounds (the parent first in odd rounds), as perfpairs.sh
# pairs the repository benchmark.
#
#   scripts/handoffs.sh [rounds=3] [n=20000] [base=merge-base of HEAD and main]
#   make handoffs ROUNDS=3 N=20000
#
# handoffs/op is the estimate bench_test.go's handoffsPerOp makes from the
# runtime's scheduling-latency samples: wake-ups plus syscall returns
# (EXPERIMENTS.md L1 has the attribution). It moves by a few hundredths
# from round to round; allocs/op repeats exactly. Each cell lists the
# rounds in order. Everything written lands under .bench_build/, which
# is ignored.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rounds="${1:-3}"
n="${2:-20000}"
base="${3:-$(git merge-base HEAD main)}"
benches='^Benchmark(RemoteInpTwoNodes|RemoteInpTwoNodesTCP|RemoteInBlockingTwoNodes|RemoteOutAtTwoNodes)$'

dir="$root/.bench_build/handoffs"
rm -rf "$dir"
mkdir -p "$dir/parent"
git archive "$base" | tar -x -C "$dir/parent"
echo "parent: $(git rev-parse --short "$base") in ${dir#"$root"/}/parent; change: working tree"
(cd "$dir/parent" && go test -c -o "$dir/parent.test" .)
go test -c -o "$dir/change.test" .

# side <name> <dir> <round>: one run of the four benchmarks, one line
# "<name> <round> <benchmark> <handoffs/op> <allocs/op>" each.
side() {
	(cd "$2" && "$dir/$1.test" -test.run '^$' -test.bench "$benches" -test.benchtime "${n}x") |
		awk -v side="$1" -v round="$3" '/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
			for (k = 2; k <= NF; k++) {
				if ($k == "handoffs/op") h = $(k - 1)
				if ($k == "allocs/op") a = $(k - 1)
			}
			print side, round, name, h, a
		}' >>"$dir/runs"
}
for r in $(seq 1 "$rounds"); do
	if ((r % 2)); then
		side parent "$dir/parent" "$r"
		side change "$root" "$r"
	else
		side change "$root" "$r"
		side parent "$dir/parent" "$r"
	fi
done

echo
sort -k3,3 -k1,1r -k2,2n "$dir/runs" | awk '
	{ key = $3 " " $1; if (!(key in h)) { order[++n] = key }
	  h[key] = h[key] (h[key] == "" ? "" : " ") $4; a[key] = a[key] (a[key] == "" ? "" : " ") $5 }
	END {
		printf "%-26s %-7s %-24s %s\n", "benchmark", "side", "handoffs/op", "allocs/op"
		for (k = 1; k <= n; k++) { split(order[k], f, " "); printf "%-26s %-7s %-24s %s\n", f[1], f[2], h[order[k]], a[order[k]] }
	}'
