package core

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// obsRun replays the fixed differential stream through an engine with the
// full observability layer on — metrics registry wired into pool, plan
// cache, executor and disk hooks, plus per-query tracing — and returns the
// run's observable output alongside the engine metrics and every query's
// trace, concatenated in stream order.
func obsRun(t *testing.T, workers, partitionRows int) (diffRun, obs.MetricsSnapshot, string) {
	t.Helper()
	w := workload.TPCH(0.004, 3)
	ops, err := w.Stream(diffStreamCfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes, rows := w.CostScale()
	mx := obs.NewMetrics()
	e := New(w.Catalog, Config{
		Mode:          ModeTaster,
		StorageBudget: bytes / 2,
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          7,
		Workers:       workers,
		PartitionRows: partitionRows,
		MaxStaleness:  0.15,
		Synchronous:   true,
		Metrics:       mx,
		Trace:         true,
	})
	var run diffRun
	var trace string
	for _, op := range ops {
		if op.Append != nil {
			if _, err := e.Ingest(op.Append.Table, op.Append.Rows); err != nil {
				t.Fatalf("ingest %s: %v", op.Append.Table, err)
			}
			continue
		}
		q, err := sqlparser.Parse(op.SQL, w.Catalog)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, op.SQL)
		}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, op.SQL)
		}
		trace += res.Trace
		run.rows = append(run.rows, res.Rows...)
		run.ivs = append(run.ivs, res.Intervals...)
		run.used = append(run.used, len(res.Report.UsedSynopses))
		run.sim = append(run.sim, res.Report.SimSeconds)
	}
	return run, e.MetricsSnapshot(), trace
}

// TestDifferentialObsOnVsOff is the observability layer's answer-neutrality
// proof: the full self-tuning engine with metrics AND tracing enabled must
// produce byte-identical rows, intervals and synopsis-reuse profiles to the
// bare engine — across worker counts 1/4/8, over 797-row partitions and
// monolithic tables — and, the two engines sharing a layout, bit-identical
// simulated cost per query. The stream takes join build sides through every state of
// the join cache (first sight, hit, a new table version), so the
// equality covers a traced run whose build subtrees were compiled and
// wrapped but never opened. The metrics side must also be non-vacuous: the
// run has to have actually counted queries, pool traffic, tuning rounds and
// join-cache traffic, and the traces must show a cached build.
func TestDifferentialObsOnVsOff(t *testing.T) {
	for _, partitionRows := range []int{797, monolithicRows} {
		for _, workers := range []int{1, 4, 8} {
			bare := runDifferentialStream(t, ModeTaster, partitionRows, workers)
			instr, snap, trace := obsRun(t, workers, partitionRows)
			mustEqualRuns(t, "obs on-vs-off", bare, instr)
			for i := range bare.sim {
				if math.Float64bits(bare.sim[i]) != math.Float64bits(instr.sim[i]) {
					t.Fatalf("query %d: SimSeconds %v bare vs %v instrumented", i, bare.sim[i], instr.sim[i])
				}
			}

			if snap.QueriesServed != int64(diffStreamCfg.Queries) {
				t.Fatalf("QueriesServed = %d, want %d", snap.QueriesServed, diffStreamCfg.Queries)
			}
			if snap.QueryErrors != 0 {
				t.Fatalf("QueryErrors = %d, want 0", snap.QueryErrors)
			}
			if snap.IngestBatches == 0 || snap.IngestRows == 0 {
				t.Fatal("ingest counters stayed zero over a stream with appends")
			}
			if snap.TuningRounds == 0 || snap.SnapshotPublishes == 0 {
				t.Fatal("tuning counters stayed zero on a synchronous engine")
			}
			if snap.PoolBatchGets == 0 {
				t.Fatal("pool counters stayed zero: the hook wiring is dead")
			}
			if snap.KernelFilterBatches == 0 {
				t.Fatal("filter batch counter stayed zero")
			}
			if partitionRows != monolithicRows && workers > 1 && snap.PrunedPartitions == 0 {
				t.Fatal("a partitioned layout but no partition was ever pruned")
			}
			if snap.JoinCacheMisses == 0 || snap.JoinCacheAdmissions == 0 || snap.JoinCacheHits == 0 || snap.JoinCacheBytes == 0 {
				t.Fatalf("join-cache counters stayed zero: hits %d misses %d admissions %d bytes %d",
					snap.JoinCacheHits, snap.JoinCacheMisses, snap.JoinCacheAdmissions, snap.JoinCacheBytes)
			}
			if trace == "" {
				t.Fatal("tracing enabled but no query rendered a trace")
			}
			if !strings.Contains(trace, "(cached rows=") {
				t.Fatalf("join-cache hits were counted but no trace marks a cached build:\n%s", trace)
			}
			if !strings.Contains(trace, "rows=") || !strings.Contains(trace, "batches=") {
				t.Fatalf("trace missing stat line:\n%s", trace)
			}
			// Frozen clock under Synchronous: durations must render as 0s,
			// or the trace would not be byte-reproducible.
			if strings.Count(trace, "time=") != strings.Count(trace, "time=0s") {
				t.Fatalf("synchronous trace carries nonzero durations:\n%s", trace)
			}
		}
	}
}

// TestObsTraceDeterministic: two identical runs must render byte-identical
// traces (frozen clock, deterministic execution) — the trace is part of the
// reproducible surface, not a debug-only best effort.
func TestObsTraceDeterministic(t *testing.T) {
	_, _, a := obsRun(t, 4, 797)
	_, _, b := obsRun(t, 4, 797)
	if a != b {
		t.Fatalf("traces differ across identical runs:\n--- a\n%s--- b\n%s", a, b)
	}
}

// TestMetricsSnapshotRaceStorm hammers MetricsSnapshot concurrently with
// Execute, Ingest and SetStorageBudget on an asynchronous engine. Run under
// -race this proves the read surface never races the write path: every
// counter is atomic, the snapshot holds no locks, and the engine gauges it
// samples (plan-cache len, snapshot version, warehouse usage) are themselves
// safe against tuning.
func TestMetricsSnapshotRaceStorm(t *testing.T) {
	cat := testCatalog()
	mx := obs.NewMetrics()
	e := New(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: cat.TotalBytes(),
		BufferSize:    cat.TotalBytes(),
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		Metrics:       mx,
	})
	defer e.Close()

	mix := mixedQueries(e)
	var stop atomic.Bool
	var wg sync.WaitGroup

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := e.Execute(mix[(i+g)%len(mix)]()); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20 && !stop.Load(); i++ {
			if _, err := e.Ingest("sales", salesDelta(200, 40)); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		total := cat.TotalBytes()
		for i := 0; i < 20 && !stop.Load(); i++ {
			e.SetStorageBudget(total / int64(1+i%3))
		}
	}()

	// The storm itself: snapshot readers racing everything above, rendering
	// families and quantiles so every snapshot field is actually read. Keep
	// snapshotting until the writers have demonstrably produced traffic (or
	// a generous iteration cap trips — queries take milliseconds each).
	var last obs.MetricsSnapshot
	for i := 0; i < 200_000; i++ {
		last = e.MetricsSnapshot()
		for _, f := range last.Families() {
			if f.Kind == obs.KindHistogram {
				f.Hist.Quantile(0.99)
			}
		}
		if last.QueriesServed >= 20 && last.IngestBatches >= 5 {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if last.QueriesServed == 0 {
		t.Fatal("no snapshot ever observed a served query; the storm was vacuous")
	}
	s := e.MetricsSnapshot()
	if s.QueriesServed == 0 || s.IngestBatches == 0 {
		t.Fatalf("final snapshot missing traffic: %+v", s)
	}
}

// BenchmarkExecuteServeObs is BenchmarkExecuteServe with the metrics layer
// on: the same steady-state fast path, now paying one atomic add per hook.
// Compare against BenchmarkExecuteServe to see the layer's cost; the
// acceptance budget is <5% regression, and the allocation tripwire below
// holds the same allocs/op line as the bare path — the metrics layer must
// not allocate per query.
func BenchmarkExecuteServeObs(b *testing.B) {
	e, w, queries := newServeBench(b, obs.NewMetrics())
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := queries[i%len(queries)]
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteServeObsAllocBudget holds the instrumented serving path to the
// same allocation budget as the bare one: counters are atomic adds and the
// latency histogram observes lock- and allocation-free, so turning metrics
// on must not add a single steady-state allocation per query.
func TestExecuteServeObsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget benchmark skipped in -short mode")
	}
	const budget = 319 // same line as TestExecuteServeAllocBudget
	res := testing.Benchmark(BenchmarkExecuteServeObs)
	if got := res.AllocsPerOp(); got > budget {
		t.Fatalf("instrumented serving path allocates %d allocs/op, budget is %d — the metrics layer is allocating per query", got, budget)
	}
}
