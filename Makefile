# SABRE build and verification targets.
#
#   make tier1   build + full test suite (the repo's baseline gate)
#   make race    full test suite under the race detector
#   make crash   crash-recovery suite under the race detector: WAL/
#                snapshot store tests, durable-engine recovery tests and
#                the kill/mangle/recover rows of the simulation table
#                (process crashes of one shard, of four shards and of a
#                replicated cluster mid-failover)
#   make cluster sharded-cluster suite under the race detector: the
#                partitioner tests and the front-end cluster tests, which
#                drive the shared TCP front end's per-frame Dispatch over
#                in-memory connections (redirect handoffs, pending
#                carry-over, down shards, multi-hop duplicates, 16
#                concurrent connections, batched frames, the handoff
#                crash-window table); the engine's session-transfer and
#                the store's deferred-append tests; the TCP redirect
#                end-to-end tests and the front end's socket tests (each
#                over a single engine and a 2x1 cluster); and the
#                multi-shard delivery-equality simulation (4 shards,
#                forced handoffs, shard crashes)
#   make rebalance
#                dynamic repartitioning suite under the race detector:
#                partition-map invariant/property tests, the balancer,
#                the map-file codec seed corpus, and the split/merge
#                delivery-equality + crash-point simulations
#   make failover
#                replication and failover suite under the race detector:
#                replication-stream codec + follower-log tests, the
#                per-shard replicator/fencing/promotion unit tests and
#                the kill-primaries-mid-workload delivery-equality
#                simulations (incl. mid-handoff and mid-merge-drain)
#   make lifecycle
#                lifecycle-alarm suite under the race detector: the
#                continuous/pair/composite state-machine unit tests, the
#                registry's partition-vs-reference differential test (the
#                per-user record holds the machines), the
#                mid-lifecycle snapshot round-trip and composite-TTL
#                recovery tests, and the per-strategy delivery-equality
#                simulations (faults, crash recovery, and a cluster split
#                that separates a pair's endpoints mid-run)
#   make smoke-server
#                the alarmserver binary end to end over real sockets:
#                one replayed client against a plain server, a durable
#                one killed with -9 and restarted, two shards and a
#                replicated shard; each must deliver the same two alarms
#                once (scripts/smoke-alarmserver.sh)
#   make bench   the engine hot-path Go benchmarks (EngineSteadyState,
#                EngineBatch, EngineSerial): HandleUpdate and
#                HandleUpdateBatch called in-process, no socket
#   make bench-smoke
#                compile and run every benchmark once (-benchtime=1x) so
#                CI catches bit-rotted benchmark code without paying for
#                real measurement runs
#   make figures every experiment of cmd/alarmbench (the paper's Fig. 4-6
#                tables and the ablations) at small scale with -verify:
#                each configuration's triggers must equal the periodic
#                ground truth's; every run is a fault-free one-shard
#                sim.Drive, so the whole sweep takes ~15 s
#   make benchpair BASE=<rev> WORKLOAD=<w> PAIRS=<n> [SEED=<s>]
#                the repo's benchmark (bench/run.sh --trace 0) on BASE
#                and on this checkout, PAIRS runs each in alternating
#                order; prints median, quartiles and wins per end-to-end
#                metric (scripts/benchpair.sh; BASE is exported with git
#                archive under .bench_build/); WORKLOAD=all runs every
#                workload of BENCHMARK.json, one table each
#   make logdiff BASE=<rev>
#                the simulation rows (TestDeliveryEquality and
#                TestDriveDeterministic, ./internal/sim/) on BASE and on
#                this checkout; diffs their t.Logf lines with timings
#                stripped and fails on any difference
#                (scripts/logdiff.sh; BASE is exported like benchpair's)

GO ?= go

# sim runs the ./internal/sim/ cases whose names match $(1) under the race
# detector. The cases are subtests of TestDeliveryEquality and
# TestDriveDeterministic, so a stale pattern would select nothing and
# `go test` would still exit 0; this fails unless a subtest passed.
sim = echo "$(GO) test -race -v -run '$(1)' ./internal/sim/"; \
	out=`$(GO) test -race -v -run '$(1)' ./internal/sim/ 2>&1`; rc=$$?; \
	echo "$$out" | grep -v '^=== '; \
	[ $$rc -eq 0 ] || exit $$rc; \
	echo "$$out" | grep -q '^ *--- PASS: [^ ]*/' || \
		{ echo "make: -run '$(1)' selected no test in ./internal/sim/" >&2; exit 1; }

.PHONY: tier1 race crash cluster rebalance failover lifecycle smoke-server bench bench-smoke figures benchpair logdiff

tier1:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

crash:
	$(GO) test -race ./internal/store/
	$(GO) test -race -run 'Durable|SessionExpiry|PendingFiredCap' ./internal/server/
	@$(call sim,(DeliveryEquality|DriveDeterministic)/(Crash|Torture))

cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'Export|Import|ExpiredSession|Handoff|DropSession' ./internal/server/
	$(GO) test -race -run 'TCP' ./internal/server/
	$(GO) test -race -run 'Deferred|ExpireAbsent|CarriedFired' ./internal/store/
	@$(call sim,(DeliveryEquality|DriveDeterministic)/Cluster)

rebalance:
	$(GO) test -race -run 'Partition|Balancer|Split|Merge' ./internal/cluster/
	@$(call sim,DeliveryEquality/Repartition)

failover:
	$(GO) test -race -run 'Repl|Follower' ./internal/store/
	$(GO) test -race -run 'Replication|Failover|Fencing|Promotion|Split' ./internal/cluster/
	@$(call sim,DeliveryEquality/Failover)

lifecycle:
	$(GO) test -race -run 'Continuous|Pair|Composite|Lifecycle|Event|ResetFired|RegistryMatchesReference|IndexAccessCounting|ConcurrentAccess' ./internal/alarm/
	$(GO) test -race -run 'Lifecycle|Composite' ./internal/server/
	@$(call sim,DeliveryEquality/Lifecycle)

smoke-server:
	bash scripts/smoke-alarmserver.sh

bench:
	$(GO) test -run xxx -bench 'Engine' -benchtime 2000x .

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

figures:
	$(GO) run ./cmd/alarmbench -scale small -verify all

BASE ?= HEAD
WORKLOAD ?= batch_mix_durable
PAIRS ?= 10
SEED ?= 1

benchpair:
	bash scripts/benchpair.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

logdiff:
	bash scripts/logdiff.sh $(BASE)
