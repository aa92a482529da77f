GO ?= go

.PHONY: all check fmt vet lint staticcheck govulncheck build test bench-harness bench-smoke determinism race race-all test-race fuzz-smoke bench bench-join bench-stream bench-serve bench-warmstart bench-partition bench-execute bench-kernels profile-serve profile-trace smoke-metrics

all: check

check: fmt vet lint build test bench-harness bench-smoke determinism staticcheck govulncheck

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# tasterlint is the repo's own static-analysis suite (detrand, mapiter,
# locksafe, snapshotimmut, poolsafe): it mechanically enforces the engine's
# determinism, locking, immutability and pool invariants. Required in CI;
# see "Invariants & enforcement" in docs/ARCHITECTURE.md.
lint:
	$(GO) run ./cmd/tasterlint ./...

# Third-party analyzers, gated on availability: the hermetic build image
# does not ship them, so absence is a skip with a note, not a failure.
# CI installs both before running check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness (benchmark/, BENCHMARK.json) is a nested module, so
# the root build and test never compile it: vet and test it in place, or a
# change to a package its probes call breaks it unseen.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The declared benchmark (BENCHMARK.json) end to end at test scale: each
# workload is built from source and run exactly as the driver runs it, only
# with --smoke, and must end in a result record — the last stdout line — that
# says correct:true and failed:0. About 11 s per workload, build included.
bench-smoke:
	@set -e; for w in dash_repeat explore_cold scan_exact; do \
		rec=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 18 --trace 0 --smoke | tail -n 1); \
		if echo "$$rec" | grep -q '"correct":true' && echo "$$rec" | grep -q '"failed":0[,}]'; then \
			echo "bench-smoke: $$w ok"; \
		else \
			echo "bench-smoke: $$w: want correct:true and failed:0, got: $$rec"; exit 1; \
		fi; \
	done

# Byte-determinism gate: the whole experiment suite (every engine on the
# synchronous tuning schedule) run twice must print identical reports. Any
# change that makes a synchronous run depend on goroutine scheduling, map
# order or the clock turns this red.
determinism:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/tasterbench" ./cmd/tasterbench; \
	"$$d/tasterbench" -experiment all -benchjson=false > "$$d/a.txt"; \
	"$$d/tasterbench" -experiment all -benchjson=false > "$$d/b.txt"; \
	cmp "$$d/a.txt" "$$d/b.txt"; \
	echo "determinism: two runs of -experiment all are byte-identical"

# The concurrency suite under the race detector: morsel-executor determinism,
# the concurrent serving path, and the partitioned ingest/query/spill storm.
race:
	$(GO) test -race ./internal/core/ ./internal/exec/ .

# Every package under the race detector (CI's required race gate; the
# `race` subset above stays as the fast local loop).
race-all:
	$(GO) test -race ./...

test-race: race

# Ten-second smoke runs of the coverage-guided fuzz targets: the
# persistence decoders (arbitrary bytes must never panic), the
# partition-sample merge (statistical invariants under random inputs) and the
# join key index (lookups equal a Go map's for any key words).
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/persist
	$(GO) test -run NONE -fuzz 'FuzzDecodeExpr$$' -fuzztime 10s ./internal/persist
	$(GO) test -run NONE -fuzz 'FuzzMergePartitionSamples$$' -fuzztime 10s ./internal/synopses
	$(GO) test -run NONE -fuzz 'FuzzJoinIndex$$' -fuzztime 10s ./internal/exec

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# One pass over the grouped-join benchmarks: exercises the partitioned
# parallel hash join end to end (CI runs this as a smoke test), then the
# fixed-key index alone — build ns/row and probe ns/probe over a dense
# 150 k-key dimension, 150 k sparse keys and a 133-of-20 k filtered build.
bench-join:
	$(GO) test -run xxx -bench Join -benchtime 1x .
	$(GO) test ./internal/exec -run NONE -bench 'BenchmarkJoin(Build|Probe)' -benchtime 20x

# Streaming-ingestion smoke: runs the error-vs-staleness experiment at a
# tiny scale and emits BENCH_streaming.json (CI collects it as the perf
# summary artifact).
bench-stream:
	$(GO) run ./cmd/tasterbench -experiment streaming -workload tpch -sf 0.002 -queries 24

# Concurrent-serving throughput: closed-loop multi-client sweep comparing
# the inline tuning round (the old per-query tuning mutex) against the
# asynchronous snapshot-published pipeline; emits BENCH_serving.json.
bench-serve:
	$(GO) run ./cmd/tasterbench -experiment serving -workload tpch -sf 0.002 -queries 96

# Steady-state serving-path microbenchmark with allocation accounting: one
# warmed engine, repeated queries, parse + cache-hit planning + pooled
# execution per op. TestExecuteServeAllocBudget holds the allocs/op line in
# the regular test run; this target prints the numbers.
bench-execute:
	$(GO) test ./internal/core -run NONE -bench ExecuteServe -benchmem

# Per-stage ns/row microbenchmarks of the vectorized hot path: the compiled
# selection-kernel filter vs the interpreted Eval fallback, and the hoisted
# agg-major observe loop vs its row-major regression baseline (CI runs this
# as a smoke test; the equivalence claims are pinned by regular tests).
bench-kernels:
	$(GO) test ./internal/exec -run NONE -bench 'BenchmarkFilter|BenchmarkAgg' -benchtime 200x

# CPU + allocation profiles of the serving sweep, for digging into the
# fast-path hot spots (tuner rounds, join probe, filter, plan cache).
# Inspect with: go tool pprof serve.cpu.pprof
profile-serve:
	$(GO) run ./cmd/tasterbench -experiment serving -workload tpch -sf 0.002 \
		-queries 96 -cpuprofile serve.cpu.pprof -memprofile serve.mem.pprof

# Runtime execution trace of the serving sweep: scheduler, GC and contention
# timelines — the profile pair's complement for latency (not CPU) questions.
# Inspect with: go tool trace serve.trace
profile-trace:
	$(GO) run ./cmd/tasterbench -experiment serving -workload tpch -sf 0.002 \
		-queries 96 -trace serve.trace

# Live-metrics smoke: runs the serving sweep with the /metrics surface up,
# scrapes it mid-run, and asserts the taster_ series are present and the
# Prometheus text parses shape-wise (HELP/TYPE per family). CI runs this to
# keep the export surface wired end to end.
smoke-metrics:
	@set -e; \
	$(GO) run ./cmd/tasterbench -experiment serving -workload tpch -sf 0.002 \
		-queries 96 -metrics-addr 127.0.0.1:9819 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 60); do \
		if curl -sf http://127.0.0.1:9819/metrics >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.5; \
	done; \
	[ "$$up" = 1 ] || { echo "smoke-metrics: /metrics never came up"; exit 1; }; \
	out=$$(curl -sf http://127.0.0.1:9819/metrics); \
	echo "$$out" | grep -q '^# TYPE taster_queries_total counter' || { echo "smoke-metrics: missing taster_queries_total"; exit 1; }; \
	echo "$$out" | grep -q '^# TYPE taster_query_latency_seconds histogram' || { echo "smoke-metrics: missing latency histogram"; exit 1; }; \
	echo "$$out" | grep -q '^taster_snapshot_publishes_total ' || { echo "smoke-metrics: missing tuning series"; exit 1; }; \
	curl -sf http://127.0.0.1:9819/debug/vars | grep -q '"taster_queries_total"' || { echo "smoke-metrics: /debug/vars missing series"; exit 1; }; \
	echo "smoke-metrics: /metrics and /debug/vars healthy"; \
	wait $$pid

# Restart-recovery smoke: persists half the fig3 workload's warehouse to a
# temp directory, restarts from it, and reports cold vs warm first-query
# latency plus the byte-fidelity verdict; emits BENCH_warmstart.json.
# Instacart is the recurring-template workload, so recovered synopses are
# reusable from the first post-restart queries on.
bench-warmstart:
	$(GO) run ./cmd/tasterbench -experiment warmstart -workload instacart -sf 0.002 -queries 24

# Zone-map pruning A/B on the time-clustered event table: selective range
# predicates with pruning on vs off; emits BENCH_partition.json with the
# scan-byte and simulated-seconds ratios (CI asserts the ≥2x speedup).
bench-partition:
	$(GO) run ./cmd/tasterbench -experiment partition -queries 48
