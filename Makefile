GO ?= go

.PHONY: tier1 build test race vet lint docs-check fuzz-smoke bench bench-smoke bench-record bench-compare loadtest-smoke clean

# tier1 is the repo's gate: every PR must leave it green.
tier1: vet lint docs-check build race fuzz-smoke bench-smoke bench-compare loadtest-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs both repo-convention checks (tools/lint): package-comment
# paper anchors and the no-telemetry-on-stdout rule for the CLIs.
lint:
	$(GO) run ./tools/lint

# docs-check verifies every internal package comment anchors the code to
# the paper (Section/Figure/Table/Algorithm N) — the godoc contract.
docs-check:
	$(GO) run ./tools/lint -docs

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short deterministic-ish fuzz smoke over the binary codecs: every
# decoder (instruction traces, mlpcache.events/v2 event streams, and
# mlpcache.model/v1 learned-model files) must survive arbitrary bytes,
# and encode→decode must round-trip.
fuzz-smoke:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceDecode -fuzztime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime 5s
	$(GO) test ./internal/metrics/ -run '^$$' -fuzz FuzzEventsV2Decode -fuzztime 5s
	$(GO) test ./internal/learn/ -run '^$$' -fuzz FuzzModelDecode -fuzztime 5s

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-smoke runs the core-model, observability, tracing, oracle,
# multi-core, learned-eviction, parallel-engine and arena benchmarks
# once each and fails if any stops being selected — a renamed or deleted
# benchmark silently vanishes from `go test -bench`, so the output is
# grepped for each name.
bench-smoke:
	@out="$$($(GO) test -bench 'BenchmarkCPUIssue|BenchmarkObservability|BenchmarkTracingV2|BenchmarkOracleHeadroom|BenchmarkMulticoreThroughput|BenchmarkLearnedEviction|BenchmarkParallelMulticore|BenchmarkArenaReuse' -benchtime 1x -run '^$$' .)"; \
	echo "$$out"; \
	for name in BenchmarkCPUIssue/l1 BenchmarkCPUIssue/mem BenchmarkObservability BenchmarkTracingV2 BenchmarkOracleHeadroom BenchmarkMulticoreThroughput BenchmarkLearnedEviction BenchmarkParallelMulticore BenchmarkArenaReuse; do \
		echo "$$out" | grep -q "$$name" || { echo "bench-smoke: $$name missing from benchmark output" >&2; exit 1; }; \
	done

# bench-record snapshots the perf-trajectory suite into BENCH_PR12.json
# (instr/s, ns/op, allocs/op per benchmark; best of four passes). The
# snapshot is committed so bench-compare has a fixed reference; any
# pre_pr5_baseline / prior_baselines sections already in the file are
# preserved, and BENCH_PR10.json is folded in as a prior baseline so
# the cross-PR trajectory stays in one document.
bench-record:
	$(GO) run ./tools/benchjson -record -out BENCH_PR12.json -prior pr10=BENCH_PR10.json -count 4

# bench-compare re-runs the suite and fails on a >10% instr/s drop
# relative to the suite-wide median ratio (host steal on a virtualized
# single-vCPU machine moves every wall-clock figure together — only
# drops *away from the pack* indicate a code regression), a >20%
# allocs/op growth against the committed snapshot, a v2-traced run
# allocating more than 2x an untraced one, a learned-policy run
# allocating more than 1.5x the LRU baseline, a 4-core parallel run
# slower than serial on a 4+-CPU host, or an arena-reused run
# allocating more than 0.5x a cold one (see docs/PERFORMANCE.md for
# the contract). Part of tier1. Best-of-4 separate suite passes on
# both sides, so each benchmark's samples are spread across the run's
# wall time.
bench-compare:
	$(GO) run ./tools/benchjson -compare -baseline BENCH_PR12.json -count 4

# loadtest-smoke fires a short chaos burst at an in-process sweep
# service (tools/loadgen): every job must come back with a terminal
# answer and the daemon's counters must reconcile, or loadgen exits 1.
loadtest-smoke:
	$(GO) run ./tools/loadgen -jobs 60 -concurrency 12 -n 10000 -chaos-fail 150 -chaos-panic 20

clean:
	$(GO) clean ./...
