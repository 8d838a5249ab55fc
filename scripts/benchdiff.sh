#!/bin/sh
# benchdiff.sh — compare the two most recent BENCH_<n>.json baselines in
# two passes: the whole suite at a 20% ns/op threshold (advisory — the
# reproduction experiments run one iteration each and are too noisy to
# block on), then the serve-path hot set (the `hot` pattern below) at a
# tighter 15%, which is the blocking gate. With fewer than two
# baselines there is nothing to compare and the script succeeds quietly. scripts/check.sh runs this as
# part of the pre-merge gate; run it directly before committing a fresh
# baseline.
set -eu
cd "$(dirname "$0")/.."

hot='^Benchmark(StoreOutInp|StoreWakeOneOfEight|RemoteInpTwoNodes|RemoteInBlockingTwoNodes|WireRoundtrip)(/|$)'

prev=""
cur=""
for f in $(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); do
    prev="$cur"
    cur="$f"
done

if [ -z "$prev" ]; then
    echo "benchdiff: fewer than two BENCH_*.json baselines; nothing to compare"
    exit 0
fi

# Flags must precede the positional file args: the Go flag parser stops
# at the first non-flag argument.
echo "==> benchdiff $prev -> $cur (advisory, >20% ns/op flagged)"
go run ./scripts/benchtool -diff -threshold 0.20 "$prev" "$cur" || true

echo "==> benchdiff hot path $prev -> $cur (fail on >15% ns/op regression)"
exec go run ./scripts/benchtool -diff -threshold 0.15 -filter "$hot" "$prev" "$cur"
