#!/bin/sh
# check.sh — the full pre-merge gate: vet, unit tests, and the race
# detector over everything (including the chaos suite and the C1-C6
# soaks, which run real instances over a faulty network on the wall
# clock), the bench/ module, and decoder fuzzing.
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l (tracked Go files)"
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "not gofmt-clean:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

# bench/ is a module of its own (BENCHMARK.json's harness): ./... above
# does not reach it, and it compiles against internal/ APIs. Its smoke
# runs all four seeded, self-checking workloads end to end, which is the
# gate's whole performance-path check; times are measured by `make perf`
# and gate nothing.
echo "==> bench module: go vet, go test -race"
go vet -C bench ./...
go test -C bench -race ./...

# The suites (crash, soak, mobility, gray, replica, upgrade with the
# C1-C6 soaks, and farm) all ran inside `go test -race ./...` above. Their
# -run patterns live in the Makefile, for `make <suite>`; the gate only
# checks that none of them has gone stale and names no test any more.
echo "==> suite patterns name tests"
make -s suites-nonempty

# Decoder fuzz smoke: a few seconds per target, seeds cover the optional
# Busy/Budget/Caps trailing fields (mixed-version frame layouts).
echo "==> fuzz smoke (wire, tuple)"
go test -run '^$' -fuzz FuzzDecode -fuzztime "${FUZZTIME:-10s}" ./wire/
go test -run '^$' -fuzz FuzzDecodeTuple -fuzztime "${FUZZTIME:-10s}" ./tuple/

echo "==> line counts (make loc)"
make -s loc

echo "OK"
