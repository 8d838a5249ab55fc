#!/usr/bin/env bash
# heapsites.sh — where a workload's live heap is, by allocation site, on
# the merge base and on the working tree, in alternating repeats as
# perfpairs.sh pairs the repository benchmark.
#
#   scripts/heapsites.sh <workload> [repeats=4] [base=merge-base of HEAD and main]
#   make heap W=walk4_tcp REPEATS=4
#
# Both trees are exported under .bench_build/heap/<workload>/ and
# scripts/heapsites.patch is applied to each export's bench/child.go, never
# to bench/ itself: it samples one allocation in 4 096 bytes
# (runtime.MemProfileRate) and, at the end of the measured window with the
# load still running, forces a GC, writes a heap profile and records
# runtime.MemStats and ru_maxrss. Each repeat is one 6 s run of the
# benchmark (one process) with --seed <repeat>. The report gives, per side:
# in-use bytes by site (pprof inuse_space over all the side's profiles, ÷
# repeats), the heap statistics (median, min–max), and the objects per op
# the two pools' New functions allocate — core.newOpState (the instances'
# op states) and wire's bufPool (encode buffers) — from alloc_objects over
# every op of the repeats, set-up and warm-up included: each is a pool
# refill, which a GC that empties the pools makes more of. The patch
# stops applying once bench/child.go changes; check.sh tests it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
workload="${1:?usage: heapsites.sh <workload> [repeats] [base]}"
repeats="${2:-4}"
base="${3:-$(git merge-base HEAD main)}"

dir="$root/.bench_build/heap/$workload"
rm -rf "$dir"
mkdir -p "$dir/parent" "$dir/change"
git archive "$base" | tar -x -C "$dir/parent"
# The working tree as it stands: tracked and untracked files, not ignored.
git ls-files -z -c -o --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar -c --null -T - | tar -x -C "$dir/change"
for side in parent change; do
	patch -p1 -s --fuzz=0 -d "$dir/$side" <"$root/scripts/heapsites.patch"
done
echo "parent: $(git rev-parse --short "$base"); change: working tree; both in ${dir#"$root"/}"

run() {
	(cd "$dir/$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds 6 --trace 0 \
		--out "$dir/$1.$2.json") >"$dir/$1.$2.log"
	echo "  repeat $2 $1 done"
}
for r in $(seq 1 "$repeats"); do
	if ((r % 2)); then
		run parent "$r"
		run change "$r"
	else
		run change "$r"
		run parent "$r"
	fi
done

# sites <side>: "<site> <MB per repeat>" for the side's top in-use sites.
sites() {
	go tool pprof -sample_index=inuse_space -unit=kB -top -nodecount=14 "$dir/$1"/bench/out/heap-*.prof 2>/dev/null |
		awk -v n="$repeats" 'rows { v = $1; sub(/kB$/, "", v); print $6, v / 1024 / n } / flat%/ { rows = 1 }'
}
sites parent >"$dir/parent.sites"
sites change >"$dir/change.sites"
echo
echo "in-use heap by allocation site, MB per repeat (pprof inuse_space, $repeats repeats a side)"
awk 'FNR == 1 { f++ } f == 1 { p[$1] = $2; order[++n] = $1 } f == 2 { c[$1] = $2; if (!($1 in p)) order[++n] = $1 }
	END {
		printf "%-52s %10s %10s\n", "site", "parent", "change"
		for (k = 1; k <= n; k++) {
			s = order[k]
			printf "%-52s %10s %10s\n", s, (s in p) ? sprintf("%.3f", p[s]) : "-", (s in c) ? sprintf("%.3f", c[s]) : "-"
		}
	}' "$dir/parent.sites" "$dir/change.sites"
echo "(\"-\": not among that side's 14 largest sites)"

# stat <side> <name>: "median (min–max)" of one runtime.MemStats field, in
# MB, or the GC count, over the side's repeats.
stat() {
	cat "$dir/$1"/bench/out/heap-*.txt | awk -v k="$2" '$1 == k { print $2 }' | sort -n |
		awk -v k="$2" '{ v[++n] = (k == "NumGC") ? $1 : $1 / 1048576 }
			END { m = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
				f = (k == "NumGC") ? "%d (%d–%d)" : "%.2f (%.2f–%.2f)"; printf f, m, v[1], v[n] }'
}
echo
echo "at the window's end, after a GC (median, min–max; MB but GC cycles)"
printf '%-12s %-24s %s\n' "" parent change
for k in HeapAlloc HeapInuse HeapSys Sys maxrss NumGC; do
	printf '%-12s %-24s %s\n' "$k" "$(stat parent "$k")" "$(stat change "$k")"
done

# refills <side>: objects per op allocated by each pool's New function.
refills() {
	ops="$(cat "$dir/$1"/bench/out/heap-*.txt | awk '$1 == "ops" { s += $2 } END { print s }')"
	go tool pprof -sample_index=alloc_objects -nodefraction=0 -top -nodecount=100000 "$dir/$1"/bench/out/heap-*.prof 2>/dev/null |
		awk -v ops="$ops" -v side="$1" '
			function count(v) {
				if (v ~ /k$/) return substr(v, 1, length(v) - 1) * 1e3
				if (v ~ /M$/) return substr(v, 1, length(v) - 1) * 1e6
				return v + 0
			}
			$6 == "tiamat/internal/core.newOpState" { op = count($1) }
			$6 ~ /^tiamat\/wire\.init\.func/ { buf += count($1) }
			END { printf "%-8s core.newOpState %.5f   wire bufPool.New %.5f   (%d ops)\n", side, op / ops, buf / ops, ops }'
}
echo
echo "pool refills: objects per op the pools' New functions allocate (alloc_objects, whole run)"
refills parent
refills change
