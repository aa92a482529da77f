GO ?= go

.PHONY: all check fmt vet lint staticcheck govulncheck build test bench-harness bench-smoke bench-trees bench-compare bench-micro determinism parity reach reach-list reach-check race race-all test-race fuzz-smoke smoke-metrics

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
# see "Invariants & enforcement" in docs/ARCHITECTURE.md. The second line
# holds the dead-code list to the reference scan ("Reachable only from
# tests, kept on purpose", same document).
lint:
	$(GO) run ./cmd/tasterlint ./...
	$(GO) test ./internal/lint -run TestReferenceScanMatchesKeptList -count=1

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

# Wall time is measured by the declared benchmark (BENCHMARK.json, benchmark/)
# and nowhere else in this file or in CI: bench-harness and bench-smoke below
# keep it building and correct, `bash benchmark/run.sh` takes the numbers.
# The few in-package Benchmark* functions that remain are run by hand with
# `go test -bench` (README, "Measuring speed").
#
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

# The five tasterbench reports determinism, parity and reach run: the whole
# figure suite plus the streaming, both warm-restart and the partition
# experiments, every engine on the synchronous tuning schedule. Each quoted
# string is one invocation's arguments.
REPORTS = \
	"-experiment all" \
	"-experiment streaming -workload tpch -sf 0.002 -queries 24" \
	"-experiment warmstart -workload instacart -sf 0.002 -queries 24" \
	"-experiment partition -queries 48" \
	"-experiment warmstart -workload tpch"

# Byte-determinism gate: every report in REPORTS run twice must be identical.
# Any change that makes a synchronous run depend on goroutine scheduling, map
# order or the clock turns this red. About 12 s, build included.
determinism:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/tasterbench" ./cmd/tasterbench; \
	for args in $(REPORTS); do \
		"$$d/tasterbench" $$args > "$$d/a.txt"; \
		"$$d/tasterbench" $$args > "$$d/b.txt"; \
		cmp "$$d/a.txt" "$$d/b.txt"; \
		echo "determinism: two runs of '$$args' are byte-identical"; \
	done

# Byte-identity against another commit: `make parity BASE=<ref>` exports
# BASE with git archive into a temporary directory, builds cmd/tasterbench
# there and here, and cmps every report in REPORTS between the two. Every
# report runs; each one that differs is printed as `diff -u` (BASE's lines
# beside this tree's, the old-beside-new a stated re-baselining quotes), and
# the target fails at the end if any differed. A refactor that must not move
# an answer holds BASE to its parent. Not in check or CI: the base ref is a
# local choice. About 12 s.
parity:
	@set -e; test -n "$(BASE)" || { echo "parity: set BASE=<git ref>"; exit 2; }; \
	git rev-parse --verify -q "$(BASE)^{commit}" > /dev/null || { echo "parity: $(BASE) names no commit"; exit 2; }; \
	d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir -p "$$d/base"; \
	git archive "$(BASE)" | tar -x -C "$$d/base"; \
	(cd "$$d/base" && $(GO) build -o "$$d/tasterbench.base" ./cmd/tasterbench); \
	$(GO) build -o "$$d/tasterbench" ./cmd/tasterbench; \
	differ=0; for args in $(REPORTS); do \
		"$$d/tasterbench.base" $$args > "$$d/base.txt"; \
		"$$d/tasterbench" $$args > "$$d/head.txt"; \
		if cmp -s "$$d/base.txt" "$$d/head.txt"; then \
			echo "parity: '$$args' is byte-identical to $(BASE)"; \
		else \
			echo "parity: '$$args' differs from $(BASE):"; differ=1; \
			diff -u --label "$(BASE)" --label "this tree" "$$d/base.txt" "$$d/head.txt" || true; \
		fi; \
	done; \
	test $$differ = 0 || { echo "parity: reports differ from $(BASE)"; exit 1; }

# The trees a speed report compares: `make bench-trees BASE=<ref> DIR=<dir>`
# exports BASE with git archive twice, into DIR/base and DIR/base-pad, and
# adds to base-pad alone internal/obs/zz_layout_pad.go — two never-inlined
# one-line functions, which shift the text linked after them. It then builds
# the benchmark of base, base-pad and this working tree where
# benchmark/run.sh builds it, and prints where each links main.calibrate,
# mod 64: the calibration loop runs ≈ 20 % slower at ≡ 0 than at ≡ 32, and
# every time in the record is divided by it. When this tree and base differ
# there, the control is the base tree that matches it, e.g.
# `bash DIR/base-pad/benchmark/run.sh --workload <w> --seed <n> --seconds 18
# --trace 0`. Not in check or CI: the base ref is a local choice.
bench-trees:
	@set -e; test -n "$(BASE)" -a -n "$(DIR)" || { echo "bench-trees: set BASE=<git ref> DIR=<dir>"; exit 2; }; \
	git rev-parse --verify -q "$(BASE)^{commit}" > /dev/null || { echo "bench-trees: $(BASE) names no commit"; exit 2; }; \
	for t in base base-pad; do \
		test ! -e "$(DIR)/$$t" || { echo "bench-trees: $(DIR)/$$t exists; remove it first"; exit 2; }; \
		mkdir -p "$(DIR)/$$t"; git archive "$(BASE)" | tar -x -C "$(DIR)/$$t"; \
	done; \
	printf '%s\n' 'package obs' '' '//go:noinline' 'func layoutPadA() int { return 1 }' '' \
		'//go:noinline' 'func layoutPadB() int { return 2 }' '' \
		'var _ = layoutPadA()' 'var _ = layoutPadB()' > "$(DIR)/base-pad/internal/obs/zz_layout_pad.go"; \
	for t in "$(DIR)/base" "$(DIR)/base-pad" "$(CURDIR)"; do \
		b="$$t/.bench_build"; mkdir -p "$$b/tmp"; \
		(cd "$$t/benchmark" && GOCACHE="$$b/gocache" GOTMPDIR="$$b/tmp" GOPATH="$$b/gopath" \
			XDG_CONFIG_HOME="$$b/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
			$(GO) build -o "$$b/tasterbench" .); \
		a=$$($(GO) tool nm -n "$$b/tasterbench" | awk '$$3 == "main.calibrate" { print $$1 }'); \
		echo "bench-trees: $$t: main.calibrate at 0x$$a, ≡ $$(( 0x$$a % 64 )) mod 64"; \
	done

# The declared benchmark against another commit: `make bench-compare
# BASE=<ref> [SEEDS=10] [WORKLOADS="dash_repeat explore_cold scan_exact"]`
# builds base, padded base and this tree with bench-trees, runs the three
# round-robin per seed and workload (the order rotating) and prints, per
# workload and end-to-end metric, each binary's median and quartiles, the
# change's median ratio and pairs won against each base, each binary's
# main.calibrate address mod 64 and a verdict: "gain" or "loss" only when at
# least 9 in 10 pairs and a median gap wider than base's quartile spread and
# than the base/padded-base gap say so against both bases (see
# scripts/bench-compare.sh). Ten seeds of the three workloads, 90 runs,
# take about 6 minutes on a 2-CPU container, builds included. Not in check
# or CI: the base ref is a local choice.
SEEDS ?= 10
WORKLOADS ?= dash_repeat explore_cold scan_exact
bench-compare:
	@test -n "$(BASE)" || { echo "bench-compare: set BASE=<git ref> [SEEDS=10] [WORKLOADS=...]"; exit 2; }; \
	GO="$(GO)" bash scripts/bench-compare.sh "$(BASE)" "$(SEEDS)" "$(WORKLOADS)"

# In-package microbenchmarks against another commit: `make bench-micro
# BASE=<ref> PKG=<pkg> BENCH=<regex> [ROUNDS=10]` builds `go test -c` binaries
# of PKG from BASE and from this tree, runs base, change and base again (an
# A/A control) ROUNDS times in rotating order at -test.cpu 1, and prints per
# benchmark each side's min and median ns/op, the change/base median ratio
# and the A/A ratio's spread — a ratio inside that spread is "within noise" —
# and each side's median B/op and allocs/op (-test.benchmem).
# BENCH reaches the script as written: a `$` anchor in it needs no doubling.
# Not in check or CI: the base ref is a local choice, and each round runs
# the matched benchmarks three times.
ROUNDS ?= 10
bench-micro:
	@test -n "$(BASE)" -a -n "$(PKG)" -a -n '$(value BENCH)' || { echo "bench-micro: set BASE=<git ref> PKG=<pkg> BENCH=<regex>"; exit 2; }; \
	GO="$(GO)" bash scripts/bench-micro.sh "$(BASE)" "$(PKG)" '$(value BENCH)' "$(ROUNDS)"

# Reachability map, not part of check (CI gates on reach-check): builds
# tasterbench and the declared benchmark with coverage over every package of
# the module, runs the determinism reports, a TPC-H warm restart and the four
# benchmark workloads at smoke scale into one GOCOVERDIR, and prints every
# function no statement of which ran — outside internal/lint, cmd and
# benchmark, whose code this traffic is not meant to reach. The benchmark runs from a scratch
# directory, so its trace output lands there and nothing under benchmark/ is
# written. A listed function either leaves or has a reason to stay (see
# "Reachable only from tests" in docs/ARCHITECTURE.md). About 20 s.
reach:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir -p "$$d/cov" "$$d/run"; \
	$(GO) build -cover -coverpkg=github.com/tasterdb/taster/... -o "$$d/tasterbench" ./cmd/tasterbench; \
	(cd benchmark && $(GO) build -cover -coverpkg=github.com/tasterdb/taster/... -o "$$d/bench" .); \
	for args in $(REPORTS); do GOCOVERDIR="$$d/cov" "$$d/tasterbench" $$args > /dev/null; done; \
	for w in dash_repeat explore_cold scan_exact ingest_mix; do \
		(cd "$$d/run" && GOCOVERDIR="$$d/cov" "$$d/bench" --workload $$w --seed 1 --smoke --trace 1 > /dev/null); \
	done; \
	$(GO) tool covdata func -i="$$d/cov" | grep -E '[[:space:]]0\.0%$$' | \
		grep -vE '^github.com/tasterdb/taster/(internal/lint|cmd|benchmark)/' || true

# docs/REACH.txt is reach's list as package.Func names — the package as its
# path inside the module ("taster" for the root), no line numbers, sorted —
# so an edit elsewhere in a file does not churn it. reach-list prints it;
# reach-check regenerates it and diffs it against the checked-in file. CI
# gates on reach-check (the list is the same run to run and at GOMAXPROCS=1):
# a function entering or leaving the list must come with the file's edit,
# which says where to look. Not part of check, which stays quick. After a
# change that moves it: `make -s reach-list > docs/REACH.txt`.
reach-list:
	@$(MAKE) -s --no-print-directory reach | \
		awk '{ p = $$1; sub(/^github\.com\/tasterdb\/taster\//, "", p); sub(/[^\/]*\.go:[0-9]+:$$/, "", p); \
			sub(/\/$$/, "", p); if (p == "") p = "taster"; print p "." $$2 }' | LC_ALL=C sort -u

reach-check:
	@$(MAKE) -s --no-print-directory reach-list | diff -u docs/REACH.txt - && \
		echo "reach-check: docs/REACH.txt matches the measured map"

# The concurrency suite under the race detector: morsel-executor determinism,
# the concurrent serving path, the partitioned ingest/query/spill storm, and
# storage's lazily built per-version indexes and statistics (a fact table's
# GroupIDs is first built under concurrent serving; a version's statistics
# parts are first asked for by concurrent plans while an append races them;
# a column set's key index, numbering and group part share one cache entry
# under keyIdxMu, a one-column set's entry also read lock-free off its
# column, and a partition's column bounds are each computed under their own
# sync.Once),
# the planner's plan sets, whose candidates share their build-side nodes
# and run concurrently once the plan cache hands the set out again, and the
# synopses, whose distinct samplers resolve strata in their worker's scratch
# and whose stratified samples number their strata by a table version's
# shared GroupIDs.
race:
	$(GO) test -race ./internal/core/ ./internal/exec/ ./internal/planner/ ./internal/storage/ ./internal/synopses/ .

# Every package under the race detector (CI's required race gate; the
# `race` subset above stays as the fast local loop).
race-all:
	$(GO) test -race ./...

test-race: race

# Ten-second smoke runs of the coverage-guided fuzz targets: the
# persistence decoders (arbitrary bytes must never panic; a filter or a
# manifest entry they accept round-trips), the one sample
# constructor (a sample gathered from random tables, appended partitions and
# drawn rows equals the row-at-a-time reference, keeps exactly the string
# codes a batch-by-batch copy kept, and round-trips), the join key index (a batch
# probe's pairs, under any selection and resumed at any chunk room, equal a
# Go map's for any key words), the sketch-join's inline payload (counted by
# key − min or folded through a GroupIndex, the same bytes and the same (count, sum)
# per key for any key words and aggregate values), an Int64 column's group
# statistics (counted by key − min or through a GroupIndex, the same
# Distinct, MinGroup, MaxGroup and Skewed for any key words, on a version and
# its append, and the column's key index laid out from those counts — unique
# or repeating — probing and ranging as a Go map does), the filter kernels — the only filter
# evaluator — against the row-at-a-time EvalBool oracle over random term
# lists (int columns against float literals and mixed IN lists included),
# filter implication against the same oracle (whenever Implies says a
# implies b, every row a admits b admits, literals at float64's rounding
# edges on an Int64 and a Float64 column), the SQL front door (arbitrary bytes parse, validate, plan and compile without
# a panic), generated EXACT queries over the TPC-H catalog against the
# row-at-a-time oracle (answers and charges at workers 1/4/8 and retiled),
# and the tuner's lazy set selection against the eager greedy it
# replaced (any sizes, costs, budget and window start: the same picks and
# gains, float for float).
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/persist
	$(GO) test -run NONE -fuzz 'FuzzDecodeExpr$$' -fuzztime 10s ./internal/persist
	$(GO) test -run NONE -fuzz 'FuzzManifest$$' -fuzztime 10s ./internal/persist
	$(GO) test -run NONE -fuzz 'FuzzGatherSample$$' -fuzztime 10s ./internal/synopses
	$(GO) test -run NONE -fuzz 'FuzzJoinIndex$$' -fuzztime 10s ./internal/exec
	$(GO) test -run NONE -fuzz 'FuzzSketchPayload$$' -fuzztime 10s ./internal/exec
	$(GO) test -run NONE -fuzz 'FuzzColumnGroups$$' -fuzztime 10s ./internal/storage
	$(GO) test -run NONE -fuzz 'FuzzQuery$$' -fuzztime 10s ./internal/exec
	$(GO) test -run NONE -fuzz 'FuzzKernelTerms$$' -fuzztime 10s ./internal/expr
	$(GO) test -run NONE -fuzz 'FuzzImplies$$' -fuzztime 10s ./internal/expr
	$(GO) test -run NONE -fuzz 'FuzzParse$$' -fuzztime 10s ./internal/sqlparser
	$(GO) test -run NONE -fuzz 'FuzzSelectSet$$' -fuzztime 10s ./internal/tuner

# Live-metrics smoke: one approximate query through a tastercli session with
# the export surface up (stdin is a FIFO, so the session stays open until the
# scrape is done), then asserts the Prometheus text is shaped right (TYPE per
# family), the tuning series is there, /debug/vars carries the same registry
# the query counter reads exactly the traffic sent and the latency sum is
# positive (the shell's engine runs on the wall clock). The tuning round's
# sum is not checked: the round can land after the scrape. CI runs this to
# keep the export surface wired end to end.
smoke-metrics:
	@set -e; d=$$(mktemp -d); pid=; \
	trap '[ -z "$$pid" ] || kill $$pid 2>/dev/null || true; rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/tastercli" ./cmd/tastercli; \
	mkfifo "$$d/in"; \
	"$$d/tastercli" -sf 0.002 -metrics-addr 127.0.0.1:9819 < "$$d/in" > "$$d/out.txt" & pid=$$!; \
	exec 3> "$$d/in"; \
	echo 'SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag ERROR WITHIN 10% AT CONFIDENCE 95%' >&3; \
	out=; for i in $$(seq 1 60); do \
		out=$$(curl -sf http://127.0.0.1:9819/metrics || true); \
		if echo "$$out" | grep -q '^taster_queries_total 1$$'; then break; fi; \
		sleep 0.5; \
	done; \
	echo "$$out" | grep -q '^taster_queries_total 1$$' || { echo "smoke-metrics: taster_queries_total never read 1"; cat "$$d/out.txt"; exit 1; }; \
	echo "$$out" | grep -q '^# TYPE taster_queries_total counter' || { echo "smoke-metrics: missing taster_queries_total TYPE"; exit 1; }; \
	echo "$$out" | grep -q '^# TYPE taster_query_latency_seconds histogram' || { echo "smoke-metrics: missing latency histogram"; exit 1; }; \
	echo "$$out" | awk '/^taster_query_latency_seconds_sum / && $$2 > 0 { ok = 1 } END { exit !ok }' || { echo "smoke-metrics: taster_query_latency_seconds_sum is not positive"; exit 1; }; \
	echo "$$out" | grep -q '^taster_snapshot_publishes_total ' || { echo "smoke-metrics: missing tuning series"; exit 1; }; \
	curl -sf http://127.0.0.1:9819/debug/vars | grep -q '"taster_queries_total"' || { echo "smoke-metrics: /debug/vars missing series"; exit 1; }; \
	echo .quit >&3; exec 3>&-; wait $$pid; pid=; \
	echo "smoke-metrics: /metrics and /debug/vars healthy"
