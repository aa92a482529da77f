package core

import (
	"testing"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/workload"
)

// newServeBench builds a warmed asynchronous engine plus the query list the
// serving benchmarks replay: every query executed once (so synopses are
// observed, selected and materialized) and the tuner quiesced, leaving the
// steady-state fast path — plan-cache hit, snapshot plan choice, pooled
// execution — as the measured quantity. mx, when non-nil, enables the
// metrics layer (BenchmarkExecuteServeObs measures its serving-path cost).
func newServeBench(tb testing.TB, mx *obs.Metrics) (*Engine, *workload.Workload, []string) {
	tb.Helper()
	w := workload.TPCH(0.002, 3)
	queries := w.Queries(48, 42)
	bytes, rows := w.CostScale()
	e := New(w.Catalog, Config{
		Mode:          ModeTaster,
		StorageBudget: bytes * 4,
		BufferSize:    bytes,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          42,
		Workers:       1,
		Metrics:       mx,
		// Window the tuner over the whole repeating list (see the serving
		// experiment): with fewer window slots than distinct shapes the keep
		// set churns forever, the snapshot ident advances every round, and
		// the benchmark measures cache-miss replanning instead of the
		// steady-state fast path it exists to pin.
		Tuner: tuner.Config{
			Window:    2 * 48,
			Alpha:     0.25,
			Adaptive:  false,
			MaxWindow: 2 * 48,
		},
	})
	for pass := 0; pass < 3; pass++ {
		for _, sql := range queries {
			q, err := sqlparser.Parse(sql, w.Catalog)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := e.Execute(q); err != nil {
				tb.Fatal(err)
			}
		}
		e.Quiesce()
	}
	return e, w, queries
}

// BenchmarkExecuteServe measures the steady-state serving path per query:
// parse + cache-hit planning + snapshot plan choice + pooled execution.
// Run with -benchmem; TestExecuteServeAllocBudget holds the allocs/op line.
func BenchmarkExecuteServe(b *testing.B) {
	e, w, queries := newServeBench(b, nil)
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

// TestExecuteServeAllocBudget is the CI allocation-regression tripwire: the
// steady-state serving path must stay under an allocs/op budget. The budget
// is 15 % above the measured figure (193 allocs/op with the engine-wide
// vector pool, the plan cache, the join cache, a spine that slices only the
// columns a query reads, sinks that keep their groups in slabs behind one
// group index or a table version's own key-ordered group ids, and morsel
// partials, filter scratch and leaf cursors that a run's workers reuse), so
// it tolerates workload drift but fails on a regression of the pooling or
// caching machinery itself — one more Vector header per scanned batch is
// already ~40 allocs/op.
func TestExecuteServeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget benchmark skipped in -short mode")
	}
	const budget = 222 // allocs per served query, steady state
	res := testing.Benchmark(BenchmarkExecuteServe)
	if got := res.AllocsPerOp(); got > budget {
		t.Fatalf("serving fast path allocates %d allocs/op, budget is %d — pooled execution or plan caching regressed", got, budget)
	}
}
