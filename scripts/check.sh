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

# Every timer in internal/core is an entry on a deadline queue (DESIGN.md
# §7). clock.Clock offers no channel timer, so the compiler polices the
# clock; this polices the time package's own timers and sleeps.
echo "==> internal/core asks the time package for no timer"
timers="$(git ls-files 'internal/core/*.go' | grep -v '_test.go$' | xargs grep -nE 'time\.(After|Sleep|NewTimer|Tick)' || true)"
if [ -n "$timers" ]; then
	echo "timers outside the deadline queue:"
	echo "$timers"
	exit 1
fi

# A responder keeps one record per served request (DESIGN.md §6,
# "Idempotent responders"): live ones in one map, finished ones in the
# served store's ring (served.go). A second map keyed by (requester, op
# ID) would fork how a duplicate is decided again.
echo "==> internal/core declares one table per request key"
tables="$(git ls-files 'internal/core/*.go' | grep -v '_test.go$' | xargs grep -n 'map\[waitKey\]' | grep -v 'make(map\[waitKey\]' || true)"
if [ "$(printf '%s' "$tables" | grep -c .)" -ne 1 ]; then
	echo "want exactly one map[waitKey] declaration, found:"
	echo "$tables"
	exit 1
fi

# The receive loop is the one reader of the endpoint's channel (DESIGN.md
# §9): the space decides where a serve runs, and nothing in core peeks at
# what waits behind a frame to decide it.
echo "==> internal/core reads the endpoint channel in loop alone"
recvs="$(git ls-files 'internal/core/*.go' | grep -v '_test.go$' | xargs grep -n 'Recv()' || true)"
if [ "$(printf '%s' "$recvs" | grep -c .)" -ne 1 ]; then
	echo "want Recv() on exactly one line (loop's), found:"
	echo "$recvs"
	exit 1
fi

# A tuple enters the space under its out lease in one place, place
# (DESIGN.md §13): Out, an eval's result, a served remote out and a
# re-out all call it, so each is leased, ended and replicated alike. Its
# store call with the lease's expiry is the mark of a placement; the
# space-info tuple's unleased Out is not one.
echo "==> internal/core places a leased tuple in one function"
places="$(git ls-files 'internal/core/*.go' | grep -v '_test.go$' | xargs grep -nE 'local\.Out\([[:alnum:]_]+, expiry\)' || true)"
if [ "$(printf '%s' "$places" | grep -c .)" -ne 1 ]; then
	echo "want local.Out(t, expiry) on exactly one line (place's), found:"
	echo "$places"
	exit 1
fi

# Replication lives in internal/replica (DESIGN.md §13): core holds one
# field of its type, nil at R=1, and calls it at named hooks. Ring
# placement or replica state back in core would grow the seam again. An
# identifier that starts with "repl" (reply, replied, replies, replay and
# replace are words, not replication; replica.X is the package) is looked
# for in code alone: comments and string literals are blanked first.
echo "==> internal/core imports no routing and declares no repl* identifier"
core="$(git ls-files 'internal/core/*.go' | grep -v '_test.go$')"
seam="$(echo "$core" | xargs grep -n '"tiamat/routing"' || true)
$(for f in $core; do
	sed -E 's/"([^"\\]|\\.)*"/""/g; s:(^|[[:space:]])//.*$::' "$f" |
		grep -nP '\brepl(?!y|ied|ies|ay|ace)\w*\b(?!\.)' | sed "s|^|$f:|"
done)"
if [ -n "$(printf '%s' "$seam" | grep .)" ]; then
	echo "replication in internal/core:"
	printf '%s\n' "$seam" | grep .
	exit 1
fi

# A node has one timer (DESIGN.md §7): its lease manager and the store it
# builds are handed the node's clock.Queue as their clock and schedule on
# it through clock.QueueOf. A queue made anywhere in them is a second one.
echo "==> internal/core, lease, internal/store and space/ make no deadline queue"
queues="$(git ls-files 'internal/core/*.go' 'lease/*.go' 'internal/store/*.go' 'space/*.go' | grep -v '_test.go$' | xargs grep -n 'clock\.NewQueue(' || true)"
if [ -n "$queues" ]; then
	echo "clock.NewQueue outside clock.QueueOf:"
	echo "$queues"
	exit 1
fi

# A lease's deadline is fixed at grant (DESIGN.md §7): GrantOffer writes
# it once, and Deadline() and ActiveLeases read it without the lease's
# lock. A second write would re-time a granted lease, and those reads
# would need the lock again. Each write is printed with the function it
# is in.
echo "==> lease writes a lease's deadline on one line, in GrantOffer"
writes="$(for f in $(git ls-files 'lease/*.go' | grep -v '_test.go$'); do
	awk -v f="$f" '/^func / { fn = $0 } /\.deadline[ \t]*[-+]?=[^=]|[{,][ \t]*deadline:/ { print f ":" FNR ": " $0 "   [in " fn "]" }' "$f"
done)"
if [ "$(printf '%s' "$writes" | grep -c .)" -ne 1 ] || ! printf '%s' "$writes" | grep -q ') GrantOffer('; then
	echo "want one write of a lease's deadline, in GrantOffer, found:"
	echo "$writes"
	exit 1
fi

# A parked registration costs no goroutine (DESIGN.md §6, §8): the space
# calls its sink on the goroutine of the Out that matched it. A go
# statement in a space is a goroutine started for one call or one
# registration, as persist's taking-waiter pump was.
echo "==> space/ and internal/store start no goroutine"
gos="$(git ls-files 'space/*.go' 'internal/store/*.go' | grep -v '_test.go$' | xargs grep -nE '(^|[^[:alnum:]_.])go +(func|[[:alnum:]_.]+\()' || true)"
if [ -n "$gos" ]; then
	echo "go statements in a space:"
	echo "$gos"
	exit 1
fi

# Hot-path counters are handles resolved once (trace.Metrics.Counter,
# DESIGN.md §7, "One reading per event"): a bump by name resolves it in a
# map under the registry's lock on every call.
echo "==> core, store, discovery, lease and the transports bump no counter by name"
bumps="$(git ls-files 'internal/core/*.go' 'internal/store/*.go' 'internal/discovery/*.go' 'lease/*.go' 'transport/memnet/*.go' 'transport/netudp/*.go' | grep -v '_test.go$' | xargs grep -nE '\.(Inc|Add|Set)\(trace\.' || true)"
if [ -n "$bumps" ]; then
	echo "counters bumped by name:"
	echo "$bumps"
	exit 1
fi

# make heap patches each exported tree's bench/child.go with
# scripts/heapsites.patch; once bench/ changes under it, the tool must
# fail here, not in the middle of a measurement.
echo "==> scripts/heapsites.patch applies to bench/"
git apply --check scripts/heapsites.patch

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
# Busy/Budget/Caps trailing fields (their truncated layouts); the netudp
# target feeds a connection's reader arbitrary streams.
echo "==> fuzz smoke (wire, tuple, netudp stream)"
go test -run '^$' -fuzz FuzzDecode -fuzztime "${FUZZTIME:-10s}" ./wire/
go test -run '^$' -fuzz FuzzDecodeTuple -fuzztime "${FUZZTIME:-10s}" ./tuple/
go test -run '^$' -fuzz FuzzReadFrames -fuzztime "${FUZZTIME:-10s}" ./transport/netudp/

echo "==> line counts (make loc)"
make -s loc

echo "OK"
