GO ?= go

SUITES = crash soak mobility gray replica upgrade farm

.PHONY: build test check bench perf allocs handoffs heap chaos fuzz loc suites-nonempty $(SUITES)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: vet + tests + race detector (includes
# the chaos suite in internal/core, which takes seconds of wall time)
# over the repository and the bench/ module — all blocking, all inside
# check.sh.
check:
	./scripts/check.sh

bench:
	$(GO) run ./cmd/tiamat-bench -quick

# perf is how a perf claim is measured: `make perf W=walk4_tcp` runs the
# repository benchmark (bench/run.sh) on the merge-base and on the working
# tree in alternating pairs and compares each pair (scripts/perfpairs.sh):
# a fresh run on both sides, minutes apart. Nothing else gates or reports
# performance; `make allocs` below and the root bench_test.go /
# bench_perf_test.go benchmarks are diagnostics.
PAIRS   ?= 3
SECONDS ?= 12
perf:
	./scripts/perfpairs.sh $(W) $(PAIRS) $(SECONDS) $(BASE)

# allocs prints where a root Go benchmark's objects come from, per
# allocation site: `make allocs [BENCH=RemoteInpTwoNodes] [N=20000]` runs
# it for N iterations with every allocation sampled and lists pprof's
# alloc_objects by site — divide a row's count by N for its objects per
# op. That list misses objects under 16 B without pointers, which the
# tiny allocator packs into a block it already has, and counts the
# benchmark's setup, so its sum is no exact count; the total is the
# benchmark's own allocs/op (-benchmem), the runtime's count, which
# includes them and is what testing.AllocsPerRun counts.
# Writes only under .bench_build/.
BENCH ?= RemoteInpTwoNodes
N     ?= 20000
allocs:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^Benchmark$(BENCH)$$' -benchtime $(N)x -benchmem -memprofilerate 1 \
		-memprofile .bench_build/allocs.prof -o .bench_build/allocs.test . | tee .bench_build/allocs.out
	@$(GO) tool pprof -sample_index=alloc_objects -top .bench_build/allocs.test .bench_build/allocs.prof 2>/dev/null | \
		awk -v n=$(N) '{ print } /^Showing nodes accounting for/ { total = $$(NF-1) } \
			END { printf "sampled objects/op (misses tiny objects) = %s / %d = %.2f\n", total, n, total / n }'
	@awk '{ for (i = 2; i <= NF; i++) if ($$i == "allocs/op") print "objects/op (exact, -benchmem) = " $$(i-1) }' .bench_build/allocs.out

# handoffs prints the goroutine hand-offs, objects and bytes per op of
# the four root remote benchmarks (RemoteInpTwoNodes{,TCP},
# RemoteInBlockingTwoNodes, RemoteOutAtTwoNodes) and the local
# LocalOutInpThroughInstance on the merge base and on the working tree,
# ROUNDS alternating rounds of N ops each (scripts/handoffs.sh). Writes
# only under .bench_build/.
ROUNDS ?= 3
handoffs:
	./scripts/handoffs.sh $(ROUNDS) $(N) $(BASE)

# heap prints a workload's live heap by allocation site, its heap
# statistics and its pools' refills per op, on the merge base and on the
# working tree, REPEATS alternating 6 s repeats a side
# (scripts/heapsites.sh, which patches each exported tree's
# bench/child.go with scripts/heapsites.patch). Writes only under
# .bench_build/.
REPEATS ?= 4
heap:
	./scripts/heapsites.sh $(W) $(REPEATS) $(BASE)

# chaos runs the fault-injection benchmarks: E2/E9/E10 over a lossy,
# duplicating, reordering network, reporting retry/dedup counters.
chaos:
	$(GO) run ./cmd/tiamat-bench -quick -chaos E2 E9 E10

# The fault-class suites. `go test -race ./...` in check.sh already runs
# every test below; these targets are the one home of the -run patterns
# that pick a class out, for iterating on it: `make <suite>` runs its
# unit tests under the race detector and then its soak experiment.
# check.sh only asks (suites-nonempty) that no pattern has gone stale.
#
# crash: WAL kill-point sweeps, torn writes, bit flips, failed syncs,
# the one removal record of a tuple taken at Out (its equal twin across
# a compaction, and the take withdrawn when that record fails), the
# shutdown/restart/rejoin lifecycle (the storage twin of chaos), a
# restarted space's one info tuple and its replayed outs' leases, and the
# take-contract checker every soak from C1 on runs (ledger.go).
crash_run  = Crash|KillPoint|Truncate|BitFlip|SyncFailure|Torn|ConsumedOut|KeepsItsTwin|LogFailure|Shutdown|Goodbye|RestartRejoin|SpaceInfoSeeded|OutLeasesAre|RevokedOutStays|Ledger|C1
crash_pkgs = ./space/persist/ ./internal/core/ ./internal/harness/
crash_exp  = C1
# soak: overload governance — admission (the space decides: a store or
# naive node serves every admitted frame on its receive loop, a persist
# node queues every one for its pool), a duplicate decided
# once by its request's record in every state, quotas, shed order,
# the shrink-before-revoke ladder, deadline propagation, the reports the
# shed assertions read (views over a per-node registry that forwards to
# a shared parent), an immediate serve admitted without a lease (and a
# full manager's refusal of one), a requester's local hit negotiated but
# never minted (and a walk's grant refused once its offer is withdrawn),
# and the C2 flood (the harness TestMain also asserts no goroutine leaks
# survive it).
soak_run  = Govern|IdleNodeServesInline|RemoteWaitFlood|ShedOrder|Revoke|Shrink|Deadline|Budget|Busy|PanicIsolation|ReportViews|TestNode|CancelOvertakes|InflightDedup|DuplicateOf|DuplicateBlockingOp|ServedCache|CancelBeforeOp|Admit|ImmediateServe|FullResponder|Negotiate|GrantOffer|LocalHitMints|WalkGrantRefused|C2
soak_pkgs = ./internal/core/ ./lease/ ./wire/ ./trace/ ./internal/harness/
soak_exp  = C2
# mobility: visibility-event re-arming, orphan reconciliation (the sweep
# an entry on the node's deadline queue), the recovery timers derived from
# ContactTimeout, fence reconciliation on a rejoin, memnet mobility
# scripting, the lease skew band, the responder list's ranking by recent
# share of finds (skewed and relocated holders), and the C3 churn soak
# with its conservation invariants.
mobility_run  = Rearm|Orphan|TimersDerive|Vis|Event|OneWay|Sched|Stale|HeldBack|Churn|Partition|Skew|Mobility|IdleNodeHoldsOneTimer|JoinCancelsFenced|SkewedHolders|RelocatedHolder|Ledger|C3
mobility_pkgs = ./internal/core/ ./internal/discovery/ ./transport/memnet/ ./lease/ ./monitor/ ./internal/harness/
mobility_exp  = C3
# gray: latency EWMA/outlier demotion, hedged lookups (first winner,
# budget, busy suppression), limp-mode memnet scripting, the WAL-stall
# and queue-delay self-reports, netudp's count of writes to a peer that
# stopped reading, and the C4 limping-node soak.
gray_run  = Hedge|Limp|Demot|Slow|Stall|Degraded|Latency|Outlier|QueueDelay|WriteTimeout|Gray|Ledger|C4
gray_pkgs = ./internal/core/ ./internal/discovery/ ./transport/memnet/ ./transport/netudp/ ./space/persist/ ./internal/harness/
gray_exp  = C4
# replica: ring placement/rebalance, the replica set behind a fake host
# (the supersede proof's three outcomes, a fence refusing a late
# replicate), write-through replication of every
# placement, remote outs included (and the out that races its own node's
# Close, replicated or not), failover takes with their
# supersede proof (served to a requester that never announced), sibling
# invalidation and fencing (sent to a rejoining origin on its join, and by
# a taker whose origin died before its accept), anti-entropy repair and
# adoption, and the C5 kill soak.
replica_run  = TestRing|WriteThrough|RemoteOutReplicates|OutRacingClose|ReplicaServes|FailoverTake|FailoverRefused|FailoverServed|TakeInvalidates|InvalidateFences|LocalReplica|RepairReplaces|Adoption|ReplicationOff|ReplFrames|ZeroReplSeq|ReplTrailing|UnreplicatedFrames|JoinCancelsFenced|TakerOriginDies|Ledger|C5
replica_pkgs = ./routing/ ./internal/replica/ ./internal/core/ ./wire/ ./internal/harness/
replica_exp  = C5
# upgrade: golden wire fixtures (byte-stability, round-trip, truncation,
# the rejected coalesced-ack frames), the wire floor (announces carry
# caps, a below-floor announce lists nobody, every frame goes out whole
# toward a peer that never announced), the write-through refusal
# regression, a taker whose origin dies before its accept (the old C6
# duplicate), the frame pipe's two ends over real sockets (buffered
# reads, allocation-free sends, session reaping, one ack per frame, the
# stream preamble on every connection and redial, one sender per
# connection), and the C6 rolling-restart soak.
upgrade_run  = Golden|Caps|Floor|Unannounced|SharedMessage|WriteThroughRefusal|SilentBackup|TakerOriginDies|FramePipe|ReadFrames|Preamble|SenderPerConnection|SendAllocates|SessionsReaped|Ledger|C6
upgrade_pkgs = ./wire/ ./internal/core/ ./internal/discovery/ ./transport/memnet/ ./transport/netudp/ ./internal/harness/
upgrade_exp  = C6
# farm: the master/worker serve path — parked registrations in all three
# spaces (one sink call per out, made by the out; a parked in outranks
# them; cancel versus delivery; WAL accounting against compaction), N
# remote takers on one template with no goroutine parked for any, every
# edge that ends a served wait in every order, the serve lease a parked
# wait carries as a field (granted into place, no object of its own), the
# lease end hook and the reusable visibility subscription under it, the
# out's reservation (no lease object, no deadline but its entry's) that an
# early accept must still release and every space's removal report ends,
# the settlement cancels that skip only the winner,
# the deadline queue under all of it (order, cancel, the arm rule, no
# runtime timer for any outbound op and fixed allocation budgets per
# remote take, op states pooled per instance, no sent frame written), the
# objects a blocking remote take and a local take allocate (root
# package; the remote one skipped under the race detector, whose pools
# leak), none for a dense bucket's read, a parked wait's template kept as
# its TCP frame decoded it, and an accepted hold its request's record
# does not keep, an idle node's goroutine census and its one
# timer, and the E5 render farm.
farm_run  = HoldWaiter|WaitedHold|StressConservation|ExactKeyAfterTag|RemoteTakersWoken|CancelledServeWait|ServedWait|ResidentMatch|ParkedRemoteWaits|PanickingSink|OutLease|RemovalReport|EndHook|ReattachedSubscription|RearmedLoser|HedgedLookupFirstWinner|BlockingInAt|Queue|ArmsNoRuntimeTimer|AllocBudget|OpStates|SentFrames|IdleNodeGoroutines|IdleNodeHoldsOneTimer|BusyNodeHoldsOneTimer|RemoteBlockingTakeAllocs|LocalTakeAllocs|DenseRdp|ParkedTemplate|AcceptedHoldNotRetained|ServeLeaseLives|GrantInto|Reserve|PlacedTupleArms|SpaceLeases
farm_pkgs = ./internal/store/ ./space/naive/ ./space/persist/ ./internal/core/ ./clock/ ./lease/ ./internal/discovery/ .
farm_exp  = E5

$(SUITES):
	$(GO) test -race -run '$($@_run)' $($@_pkgs)
	$(GO) run ./cmd/tiamat-bench -quick $($@_exp)

# suites-nonempty fails if a suite's pattern no longer names any test in
# one of its packages — a rename must not quietly empty the `make
# <suite>` a developer trusts, nor the share of it one package held.
suites-nonempty:
	@for s in $(foreach s,$(SUITES),"$(s) $($(s)_run) $($(s)_pkgs)"); do \
		set -- $$s; name=$$1; run=$$2; shift 2; \
		for pkg in "$$@"; do \
			$(GO) test -list "$$run" "$$pkg" | grep -q '^Test' || { echo "suite $$name lists no tests in $$pkg"; exit 1; }; \
		done; \
	done

# loc is the one definition of the line counts ROADMAP aim 2 tracks
# ("net-negative"): tracked Go outside bench/, non-test and test, the
# non-test lines of internal/core and of the replication and responder
# list it calls (internal/replica, internal/discovery), and the fields of
# the two config structs, counted from their declarations.
loc:
	@printf 'non-test Go lines outside bench/: '; git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l
	@printf 'test Go lines outside bench/:     '; git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l
	@for d in internal/core internal/replica internal/discovery; do \
		printf '%s non-test Go lines: ' $$d; git ls-files "$$d/*.go" | grep -v '_test.go$$' | xargs cat | wc -l; \
	done
	@for s in Config GovernorConfig; do \
		printf 'core.%s fields: ' $$s; \
		awk -v s=$$s '$$0 ~ "^type " s " struct" { f = 1; next } f && /^}/ { exit } f && /^\t[A-Z]/ { n++ } END { print n }' internal/core/*.go; \
	done

# fuzz smoke-tests the two wire-format decoders and netudp's stream
# reader (preamble, then length-prefixed frames) for a few seconds each:
# enough to catch a decoder regression in CI without turning the gate
# into a fuzzing campaign. The seed corpora cover the optional trailing
# Busy/Budget fields, so their truncated layouts stay pinned.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTuple -fuzztime $(FUZZTIME) ./tuple/
	$(GO) test -run '^$$' -fuzz FuzzReadFrames -fuzztime $(FUZZTIME) ./transport/netudp/
