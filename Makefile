# Convenience targets for the mtreescale reproduction.

GO ?= go

.PHONY: all check build vet test race race-all race-robust bench bench-all bench-compare bench-churn bench-cluster bench-large large-smoke cluster-smoke chaos-smoke churn-smoke fuzz fuzz-smoke results results-paper results-check results-paper-check report clean

all: build vet test

# The default pre-commit gate: build, vet, full test suite, a race pass over
# the concurrent packages (engine + scheduler), the large-graph smoke
# (1M-node streamed build + memory-model assertion + one curve point), and
# the committed-results gate (every medium-profile output byte for byte).
check: build vet test race large-smoke results-check

build:
	$(GO) build ./...

# vet also gates formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-detect the packages that spawn goroutines (the panicsafe job pool
# and what runs on it: measurement workers, ensemble networks, Figure 9's
# chains; the experiment scheduler, mtsim's checkpointer, the mtsimd daemon
# and its serve substrate) and the shared caches (SPT cache and the KMB
# solvers reading it, topology generation cache). race-all covers
# everything but takes several times longer.
race:
	$(GO) test -race ./internal/graph/... ./internal/topology/... \
		./internal/panicsafe/... ./internal/mcast/... ./internal/affinity/... \
		./internal/steiner/... ./internal/experiments/... ./internal/serve/... \
		./internal/cluster/... ./internal/atomicio/... ./internal/chaos/... \
		./cmd/mtsim/... ./cmd/mtsimd/... ./cmd/mtctl/...

# The robustness surface under contention: cancellation, panic isolation,
# checkpoint/resume, heap-guard, admission/shedding, drain, and quarantine
# tests under the race detector, with a hard timeout so a lost cancellation
# hangs CI instead of passing silently. The heap-guard tests then run three
# times in one process, where a run starts with the previous run's garbage
# still on the heap.
race-robust:
	$(GO) test -race -timeout 5m \
		-run 'Cancel|Panic|Recover|Resume|Checkpoint|HeapGuard|MaxHeap|Timeout|Register|Commit|WriteFile|Quarantine|Shed|Drain|Saturat|Degraded|SlowLoris|Restart|Eviction|Churn|Backs|Survives|RetryBudget|Chaos|Heartbeat|Specul|Integrity|Torn|Tail|Auth|Membership|Registry|WorkerTable|Backoff|TLS' \
		./internal/mcast/... ./internal/affinity/... ./internal/experiments/... ./internal/panicsafe/... \
		./internal/atomicio/... ./internal/serve/... ./internal/graph/... \
		./internal/cluster/... ./internal/chaos/... \
		./cmd/mtsim/... ./cmd/mtsimd/... ./cmd/mtctl/...
	$(GO) test -race -timeout 5m -count 3 -run 'HeapGuard|MaxHeap' ./internal/experiments/

race-all:
	$(GO) test -race ./...

# Record the engine benchmarks as machine-readable JSON. BENCH_6.json is the
# last committed perf-trajectory point of the engine benchmarks (slab arenas
# and streamed 10M-node topologies on top of the MS-BFS batch kernel; its
# BenchmarkLarge* points were measured on the since-removed compressed
# layout); bump the suffix when recording a new point so history stays
# comparable. bench-compare compares only the names both files share, so
# points recorded with since-removed benchmarks still compare.
BENCH_JSON ?= BENCH_6.json

# The BenchmarkLarge* suite self-skips unless MTREESCALE_LARGE=1, so the plain
# `make bench` pipeline includes the invocation but records nothing for it;
# `make bench-large` records the same doc with the large points filled in.
bench:
	{ $(GO) test -run '^$$' \
		-bench 'BenchmarkMeasureCurve$$|BenchmarkMeasureCurveCached$$|BenchmarkMeasureSharedCurve$$' \
		-benchmem -count 1 . ; \
	  $(GO) test -run '^$$' \
		-bench 'BenchmarkBFS50k$$|BenchmarkBFS50kDense$$|BenchmarkBatchSPTs64$$|BenchmarkBatchSPTs64Serial$$' \
		-benchmem -count 1 ./internal/graph ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkLarge' \
		-benchmem -benchtime 1x -count 1 -timeout 120m . ; } | $(GO) run ./cmd/benchjson -o $(BENCH_JSON)
	@cat $(BENCH_JSON)

bench-large:
	MTREESCALE_LARGE=1 $(MAKE) bench

# Record the committed cluster benchmark: the same small ensemble grid
# dispatched through the coordinator to one vs two calibrated-latency stub
# workers (see EXPERIMENTS.md for why the workers are latency stubs). The
# merged bytes of every benchmarked run are verified against the unsharded
# single-process engines before a number is written.
BENCH_CLUSTER_JSON ?= BENCH_7.json

bench-cluster:
	$(GO) run ./cmd/mtctl -bench $(BENCH_CLUSTER_JSON) \
		-bench-latency 250ms -bench-shards 8 \
		-kind ensemble -topo r100 -nets 8 -nsource 4 -nrcvr 2 -sizes 1,3,10 -seed 5
	@cat $(BENCH_CLUSTER_JSON)

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Record the committed churn benchmark: the incremental delta-maintained
# tree (DynTree.Join/Leave), its degree-bounded variant, the full engine
# event path, and the recompute-per-event baseline it replaces, at steady
# state m̄ = 1000 on a 50k-node transit-stub graph. The acceptance bar is
# Incremental ≥ 10× faster than Recompute at this operating point.
BENCH_CHURN_JSON ?= BENCH_8.json

bench-churn:
	$(GO) test -run '^$$' -bench 'BenchmarkChurn' -benchmem -count 1 \
		./internal/mcast/ | $(GO) run ./cmd/benchjson -o $(BENCH_CHURN_JSON)
	@cat $(BENCH_CHURN_JSON)

# Gate a new perf point against the previous one: per-benchmark ns/op deltas,
# nonzero exit when anything shared slowed down by more than BENCH_THRESHOLD
# percent. Points recorded in different sessions of a shared host can drift
# ±20% on the cache-sensitive kernels (see EXPERIMENTS.md); for a strict gate
# re-record both generations back-to-back, or loosen the threshold.
BENCH_OLD ?= BENCH_7.json
BENCH_NEW ?= BENCH_8.json
BENCH_THRESHOLD ?= 10

bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)

# The large-graph smoke: 1M-node streamed transit-stub, retained-heap bound
# against the streaming memory model, and one curve point measured on it.
# ~2s; part of `make check` and CI.
large-smoke:
	MTREESCALE_LARGE_SMOKE=1 $(GO) test -run 'TestLargeGraphSmoke$$' -timeout 10m .

# The cluster smoke: the coordinator's worker-kill resilience under the race
# detector (in-process daemons), then end to end across real mtsimd
# processes and sockets: two workers with one killed after its first
# completed shard, a coordinator SIGKILLed mid-run and resumed from its
# journal, and a TLS worker behind a shard token — every merged output
# byte-compared against the single-process golden.
cluster-smoke:
	$(GO) test -race -timeout 5m \
		-run 'TestClusterSurvivesDaemonKillMidRun|TestCoordinator|TestShardEndpoint' \
		./internal/cluster/... ./cmd/mtsimd/... ./cmd/mtctl/...
	./scripts/cluster_smoke.sh

# The chaos soak: the fault-injection suite (failpoint schedules, integrity
# checksums, heartbeat eviction, speculation, journal tail repair, shard
# auth) under the race detector, the disabled-failpoint overhead benchmark
# (one atomic load — see internal/chaos/bench_test.go), then the end-to-end
# script: real daemons under chaos schedules with a worker kill, a torn
# journal resume, and a seed-determinism replay, every phase byte-compared
# against the single-process golden.
chaos-smoke:
	$(GO) test -race -timeout 5m \
		-run 'Chaos|Heartbeat|Specul|Integrity|Torn|Tail|Auth|SealVerify|JournalResume' \
		./internal/chaos/... ./internal/cluster/... ./internal/atomicio/... \
		./internal/serve/... ./cmd/mtsimd/...
	$(GO) test -run '^$$' -bench 'BenchmarkChaosDisabled$$' -benchmem -count 1 ./internal/chaos/
	./scripts/chaos_smoke.sh

# The churn smoke: the incremental-tree equivalence gates (every event
# cross-checked against a from-scratch rebuild, for the unbounded, shared
# and degree-bounded variants), cancellation-mid-churn, and the churn
# experiments, under the race detector.
churn-smoke:
	$(GO) test -race -timeout 5m -run 'Churn|DynTree' \
		./internal/mcast/... ./internal/experiments/...

# Short fuzzing passes over the parsers and the equivalence gates.
fuzz:
	$(GO) test -fuzz FuzzRead$$ -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzMSBFSEquivalence -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzBuildMatchesReference -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadCSV -fuzztime 30s ./internal/plot/
	$(GO) test -fuzz FuzzParseCheckpointLine -fuzztime 30s ./internal/experiments/
	$(GO) test -fuzz FuzzParseBenchOutput -fuzztime 30s ./cmd/benchjson/
	$(GO) test -fuzz FuzzCompareDocs -fuzztime 30s ./cmd/benchjson/
	$(GO) test -fuzz FuzzParseChaosPlan -fuzztime 30s ./internal/chaos/
	$(GO) test -fuzz FuzzChurnEquivalence -fuzztime 30s ./internal/mcast/
	$(GO) test -fuzz FuzzDenseEquivalence -fuzztime 30s ./internal/mcast/
	$(GO) test -fuzz FuzzCurveMatchesPerSet -fuzztime 30s ./internal/mcast/
	$(GO) test -fuzz FuzzKMBEquivalence -fuzztime 30s ./internal/steiner/
	$(GO) test -fuzz FuzzChainEquivalence -fuzztime 30s ./internal/affinity/

# The CI fuzz gate: every target for a short burst, cheap enough to run on
# each push (regressions on known-crasher corpora surface immediately; long
# exploration stays in `make fuzz`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRead$$ -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzMSBFSEquivalence -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzBuildMatchesReference -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 10s ./internal/plot/
	$(GO) test -run '^$$' -fuzz FuzzParseCheckpointLine -fuzztime 10s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzParseBenchOutput -fuzztime 10s ./cmd/benchjson/
	$(GO) test -run '^$$' -fuzz FuzzCompareDocs -fuzztime 10s ./cmd/benchjson/
	$(GO) test -run '^$$' -fuzz FuzzParseChaosPlan -fuzztime 10s ./internal/chaos/
	$(GO) test -run '^$$' -fuzz FuzzChurnEquivalence -fuzztime 10s ./internal/mcast/
	$(GO) test -run '^$$' -fuzz FuzzDenseEquivalence -fuzztime 10s ./internal/mcast/
	$(GO) test -run '^$$' -fuzz FuzzCurveMatchesPerSet -fuzztime 10s ./internal/mcast/
	$(GO) test -run '^$$' -fuzz FuzzKMBEquivalence -fuzztime 10s ./internal/steiner/
	$(GO) test -run '^$$' -fuzz FuzzChainEquivalence -fuzztime 10s ./internal/affinity/

# Regenerate every experiment at the default (medium) profile, and
# results/REPORT.md from the same run.
results:
	$(GO) run ./cmd/mtsim -experiment all -profile medium -out results -report

# Full-size paper-faithful runs (about 30 s on two cores).
results-paper:
	$(GO) run ./cmd/mtsim -experiment all -profile paper -out results-paper

# The committed-results gates: rerun the whole registry into a temporary
# directory and cmp every <id>.{csv,gp,txt} against the committed copy; a
# differing, missing or extra file fails (scripts/results_check.sh). A change
# that moves output on purpose regenerates both directories with `make
# results` and `make results-paper` and says which figures moved. The files
# are an amd64 golden: elsewhere fused multiply-adds can move a last digit.
# results-check runs the medium registry twice: as profiled, and with the SPT
# cache off, the one run of every engine's uncached sweep (one MS-BFS slab
# per sweep) end to end.
results-check:
	./scripts/results_check.sh medium results
	./scripts/results_check.sh medium results -sptcache=false

results-paper-check:
	./scripts/results_check.sh paper results-paper

report:
	$(GO) run ./cmd/mtsim -report -profile quick

clean:
	rm -f test_output.txt bench_output.txt
