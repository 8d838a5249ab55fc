#!/usr/bin/env bash
# cover.sh — every statement block that no test executes, in the packages
# the serve path runs through: core, lease, store, discovery, replica,
# persist and the two transports.
#
#   scripts/cover.sh
#   make cover
#
# Two runs of `go test -coverprofile -coverpkg=<those packages>`: one
# over their own tests and the root package's, one over internal/harness,
# whose C-soaks drive whole nodes. A block's count is the highest either
# run gave it, and a block listed here read 0 in both. Each line is
# "<file>:<first line>-<last line> (<statements>): <source of its first
# line>", so two trees' lists can be compared by source. Everything
# written lands under .bench_build/cover/, which is ignored.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
module="$(go list -m)"
pkgs="./internal/core/ ./lease/ ./internal/store/ ./internal/discovery/ ./internal/replica/ ./space/persist/ ./transport/memnet/ ./transport/netudp/"
coverpkg="$(echo "$pkgs" | tr ' ' ',')"

dir="$root/.bench_build/cover"
rm -rf "$dir"
mkdir -p "$dir"
# run <name> <packages...>: one covered test run, its profile and log
# under <name>; a failing test fails the list.
run() {
	local name="$1"
	shift
	if ! go test -count=1 -covermode=count -coverpkg="$coverpkg" -coverprofile="$dir/$name.out" "$@" >"$dir/$name.log" 2>&1; then
		tail -n 30 "$dir/$name.log"
		echo "cover: tests failed, see ${dir#"$root"/}/$name.log" >&2
		exit 1
	fi
}
# shellcheck disable=SC2086 # pkgs is a list of package patterns
run units $pkgs .
run soaks ./internal/harness/

# A profile line is "<module>/<file>:<l0>.<c0>,<l1>.<c1> <stmts> <count>";
# one run of several packages repeats a block once per test binary.
awk -v module="$module/" '
	FNR == 1 { next } # mode line
	{
		if (!($1 in best) || $3 > best[$1]) best[$1] = $3
		stmts[$1] = $2
	}
	END {
		for (b in best) if (best[b] == 0) {
			split(b, at, ":"); split(at[2], span, ","); split(span[1], from, "."); split(span[2], to, ".")
			file = substr(at[1], length(module) + 1)
			printf "%s\t%d\t%d\t%d\n", file, from[1], to[1], stmts[b]
		}
	}' "$dir/units.out" "$dir/soaks.out" | sort -t "$(printf '\t')" -k1,1 -k2,2n >"$dir/never.tsv"

while IFS="$(printf '\t')" read -r file from to n; do
	src="$(sed -n "${from}p" "$file" | sed -E 's/^[[:space:]]+//')"
	printf '%s:%d-%d (%d): %s\n' "$file" "$from" "$to" "$n" "$src"
done <"$dir/never.tsv" | tee "$dir/never.txt"
awk -F '\t' '{ blocks++; stmts += $4 } END { printf "%d blocks, %d statements that no test executes\n", blocks, stmts }' "$dir/never.tsv"
