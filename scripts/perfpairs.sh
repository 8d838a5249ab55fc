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
# -compare, then gives each gated metric's worst pair against its bound
# from those comparisons. The ungated metrics (cpu_us_per_op, op_p90_us, op_p99_us),
# which the benchmark's result line leaves out, are read from each run's
# --out file and get the same quartiles and sign test, marked "not
# gated": nothing bounds them, but a claim about CPU time is tested like
# one about wall time. Counts (msgs_per_op, wire_bytes_per_op,
# allocs_per_op) repeat to 3-4 digits and can be claimed from any pair;
# times only from all of them. Each "better in k of n" line also gives the
# exact two-sided sign-test p over the pairs that did not tie: the chance
# of a split at least that lopsided if neither side were better. It is
# reported beside the nine-tenths rule, not instead of it. Everything
# written lands under .bench_build/perf/<workload>/, which is ignored; a
# run replaces only its own workload's directory, so runs of several
# workloads in turn keep every workload's pairs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
workload="${1:?usage: perfpairs.sh <workload> [pairs] [seconds] [base]}"
pairs="${2:-3}"
seconds="${3:-12}"
base="${4:-$(git merge-base HEAD main)}"

parent="$root/.bench_build/perf/$workload/parent"
out="$root/.bench_build/perf/$workload/out"
rm -rf "$parent" "$out"
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

# value <metric> <pair> <side>: the metric's value in that run. An
# end-to-end metric is on the benchmark's JSON line; an ungated one is under
# workloads.<workload>.ungated in the --out file, one key a line.
ungated="cpu_us_per_op op_p90_us op_p99_us"
is_ungated() { [[ " $ungated " == *" $1 "* ]]; }
value() {
	if is_ungated "$1"; then
		awk -v m="\"$1\":" '/"ungated": \{/ { u = 1 } u && $1 == m { hit = 1 }
			hit && $1 == "\"value\":" { sub(/,$/, "", $2); print $2; exit }' "$out/pair$2.$3.json"
	else
		sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" "$out/pair$2.$3.line"
	fi
}
gated="$(grep -o '"[a-z0-9_]*":{"value"' "$out/pair1.parent.line" | cut -d'"' -f2)"

# Quartiles as Python's statistics.quantiles(n=4) gives them, which is how
# the benchmark itself reports a spread.
echo
printf '%-20s %-7s %14s %14s %14s\n' metric side q1 median q3
for metric in $gated $ungated; do
	note=""
	if is_ungated "$metric"; then note="  (not gated)"; fi
	for name in parent change; do
		for i in $(seq 1 "$pairs"); do value "$metric" "$i" "$name"; done | sort -g |
			awk -v m="$metric" -v s="$name" -v note="$note" '
				{ x[NR] = $1 }
				function q(p,   pos, j) {
					pos = p * (NR + 1); j = int(pos)
					if (j < 1) return x[1]
					if (j >= NR) return x[NR]
					return x[j] + (pos - j) * (x[j + 1] - x[j])
				}
				END { if (NR) printf "%-20s %-7s %14.4f %14.4f %14.4f%s\n", m, s, q(0.25), q(0.5), q(0.75), note }'
	done
done

# The nine-tenths rule: a gain is claimed only when the change reads
# better in at least nine tenths of the pairs, ties counting for neither.
# Which way is better is BENCHMARK.json's to say; the ungated metrics are
# times, lower is better. The sign test's p is
# 2·P(X ≤ min(wins, losses)) for X ~ Binomial(wins + losses, 1/2), capped
# at 1: 9 of 10 untied pairs is p ≈ 0.021, 10 of 10 p ≈ 0.002.
echo
for metric in $gated $ungated; do
	better=lower note=""
	if is_ungated "$metric"; then
		note=" (not gated)"
	else
		better="$(awk -v m="\"$metric\"," '$1 == "\"name\":" && $2 == m { hit = 1 }
			hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }' BENCHMARK.json)"
	fi
	for i in $(seq 1 "$pairs"); do
		echo "$(value "$metric" "$i" parent) $(value "$metric" "$i" change)"
	done | awk -v m="$metric" -v better="$better" -v note="$note" '
		$2 == $1 { ties++; next }
		(better == "higher") == ($2 > $1) { wins++; next }
		{ losses++ }
		END {
			n = wins + losses; k = wins < losses ? wins : losses
			term = 0.5 ^ n; tail = term # C(n, 0) / 2^n
			for (i = 1; i <= k; i++) { term *= (n - i + 1) / i; tail += term }
			p = 2 * tail; if (p > 1) p = 1
			printf "%-20s change better in %d of %d pairs (%s is better, %d tied), sign test p = %.3g%s\n", m, wins, NR, better, ties, p, note
		}'
done

status=0
for i in $(seq 1 "$pairs"); do
	echo
	echo "== pair $i (seed $i): a = parent, b = change"
	"$root/.bench_build/tiamat-benchmark" -compare "$out/pair$i.parent.json" "$out/pair$i.change.json" |
		tee "$out/pair$i.compare" || status=$?
done

# Each gated metric's worst pair: the largest "worse by" the comparisons
# above printed (negative when the change read better in every pair),
# beside the bound it is held to.
echo
for metric in $gated; do
	for i in $(seq 1 "$pairs"); do
		awk -v m="$metric" -v i="$i" '$1 == m && $5 ~ /%$/ { print i, $4, $5; exit }' "$out/pair$i.compare"
	done | tr -d % | awk -v m="$metric" '
		NR == 1 || $2 > worst { worst = $2; pair = $1; bound = $3 }
		END { if (NR) printf "%-20s worst pair %+.1f %% (pair %d), bound %g %%\n", m, worst, pair, bound }'
done
exit "$status"
