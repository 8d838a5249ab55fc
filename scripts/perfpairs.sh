#!/usr/bin/env bash
# perfpairs.sh — the paired-run procedure every perf claim since PR 12 has
# been made by hand (bench/README.md findings 8 and 11: times on a shared
# guest spread 2-10 % run to run, so they are only ever compared between
# runs made minutes apart, alternating which side goes first).
#
#   scripts/perfpairs.sh <workload> [pairs=3] [seconds=12] [base=merge-base of HEAD and main]
#   make perf W=walk4_tcp PAIRS=5 SECONDS=12
#
# The parent is `base` exported into .bench_build/ (git archive: a plain
# directory, nothing registered in .git); the change is the working tree
# as it stands, committed or not. Pair i runs both sides with --seed i
# through each side's own bench/run.sh, prints each side's median and
# quartiles per end-to-end metric over the pairs and in how many of them
# the change read better, and feeds every pair to the benchmark's own
# -compare. Counts (msgs_per_op, wire_bytes_per_op,
# allocs_per_op) repeat to 3-4 digits and can be claimed from any pair;
# times only from all of them. Everything written lands under
# .bench_build/, which is ignored.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
workload="${1:?usage: perfpairs.sh <workload> [pairs] [seconds] [base]}"
pairs="${2:-3}"
seconds="${3:-12}"
base="${4:-$(git merge-base HEAD main)}"

parent="$root/.bench_build/perf/parent"
out="$root/.bench_build/perf/out"
rm -rf "$root/.bench_build/perf"
mkdir -p "$parent" "$out"
git archive "$base" | tar -x -C "$parent"
echo "parent: $(git rev-parse --short "$base") in ${parent#"$root"/}; change: working tree"

# side <dir> <name> <pair>: one run; the driver's JSON line is kept.
side() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
		--out "$out/pair$3.$2.json") | tail -n 1 >"$out/pair$3.$2.line"
	echo "  pair $3 $2 done"
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		side "$parent" parent "$i"
		side "$root" change "$i"
	else
		side "$root" change "$i"
		side "$parent" parent "$i"
	fi
done

# value <metric> <file>...: the metric's value on each file's JSON line.
value() {
	local metric="$1"
	shift
	cat "$@" | sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p"
}
metrics="$(grep -o '"[a-z0-9_]*":{"value"' "$out/pair1.parent.line" | cut -d'"' -f2)"

# Quartiles as Python's statistics.quantiles(n=4) gives them, which is how
# the benchmark itself reports a spread.
echo
printf '%-20s %-7s %14s %14s %14s\n' metric side q1 median q3
for metric in $metrics; do
	for name in parent change; do
		value "$metric" "$out"/pair*."$name".line | sort -g |
			awk -v m="$metric" -v s="$name" '
				{ x[NR] = $1 }
				function q(p,   pos, j) {
					pos = p * (NR + 1); j = int(pos)
					if (j < 1) return x[1]
					if (j >= NR) return x[NR]
					return x[j] + (pos - j) * (x[j + 1] - x[j])
				}
				END { if (NR) printf "%-20s %-7s %14.4f %14.4f %14.4f\n", m, s, q(0.25), q(0.5), q(0.75) }'
	done
done

# The nine-tenths rule: a gain is claimed only when the change reads
# better in at least nine tenths of the pairs, ties counting for neither.
# Which way is better is BENCHMARK.json's to say.
echo
for metric in $metrics; do
	better="$(awk -v m="\"$metric\"," '$1 == "\"name\":" && $2 == m { hit = 1 }
		hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }' BENCHMARK.json)"
	for i in $(seq 1 "$pairs"); do
		echo "$(value "$metric" "$out/pair$i.parent.line") $(value "$metric" "$out/pair$i.change.line")"
	done | awk -v m="$metric" -v better="$better" '
		$2 == $1 { ties++; next }
		(better == "higher") == ($2 > $1) { wins++ }
		END { printf "%-20s change better in %d of %d pairs (%s is better, %d tied)\n", m, wins, NR, better, ties }'
done

status=0
for i in $(seq 1 "$pairs"); do
	echo
	echo "== pair $i (seed $i): a = parent, b = change"
	"$root/.bench_build/tiamat-benchmark" -compare "$out/pair$i.parent.json" "$out/pair$i.change.json" || status=$?
done
exit "$status"
