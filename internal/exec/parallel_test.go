package exec

import (
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// bigOrders is ordersTable scaled up enough to span many morsels at the
// test's reduced morsel size.
func bigOrders(rows int) *storage.Table {
	b := storage.NewBuilder("orders", storage.Schema{
		{Name: "orders.id", Typ: storage.Int64},
		{Name: "orders.cust", Typ: storage.Int64},
		{Name: "orders.amount", Typ: storage.Float64},
	})
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i))
		b.Int(1, int64(i%10))
		b.Float(2, float64(i))
	}
	return b.Build(4)
}

// fingerprint canonicalizes an operator run: all rows plus all intervals.
func fingerprint(t *testing.T, n plan.Node, ctx *Context, seed uint64) string {
	t.Helper()
	op, err := Compile(n, seed, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprintf("%v", allRows(out))
	if rep, ok := op.(IntervalReporter); ok {
		s += fmt.Sprintf("|%v", rep.Intervals())
	}
	return s
}

func TestParallelAggCompilesForPipelineShapes(t *testing.T) {
	tbl := ordersTable()
	agg := &plan.Aggregate{
		Child:   &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{expr.Compare("orders.id", expr.LT, storage.IntValue(500))}},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
	}
	op, err := Compile(agg, 1, NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*PipelineOp); !ok {
		t.Fatalf("single-table aggregate compiled to %T, want *PipelineOp", op)
	}

	// Join pipelines run on the same executor.
	j := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: tbl}, Right: &plan.Scan{Table: customersTable()},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	op, err = Compile(j, 1, NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*PipelineOp); !ok {
		t.Fatalf("join aggregate compiled to %T, want *PipelineOp", op)
	}

	// And so does a sketch-join: the same spine under the other sink.
	sj := &plan.SketchJoin{
		Probe: j.Child, Build: &plan.Scan{Table: tbl},
		ProbeKeys: []string{"orders.id"}, BuildKeys: []string{"orders.id"},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	op, err = Compile(sj, 1, NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*PipelineOp); !ok {
		t.Fatalf("sketch-join compiled to %T, want *PipelineOp", op)
	}
}

func TestParallelAggDeterministicAcrossWorkerCounts(t *testing.T) {
	// The determinism contract: at a fixed seed and morsel size, results are
	// byte-identical for any worker count — including the sampled paths.
	tbl := bigOrders(30000)
	for _, node := range []plan.Node{
		&plan.Aggregate{ // uniform sampler
			Child:   &plan.SynopsisOp{Child: &plan.Scan{Table: tbl}, Kind: plan.UniformSample, P: 0.2},
			GroupBy: []string{"orders.cust"},
			Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "orders.amount"}},
		},
		&plan.Aggregate{ // distinct sampler below a filter
			Child: &plan.Filter{
				Child: &plan.SynopsisOp{
					Child: &plan.Scan{Table: tbl},
					Kind:  plan.DistinctSample, P: 0.1, Delta: 16, StratCols: []string{"orders.cust"},
				},
				Pred: expr.Pred{expr.Compare("orders.id", expr.LT, storage.IntValue(25000))},
			},
			GroupBy: []string{"orders.cust"},
			Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
		},
	} {
		var base string
		for _, workers := range []int{1, 3, 8, 16} {
			ctx := NewContext(0.95)
			ctx.Workers = workers
			ctx.MorselRows = 1000
			fp := fingerprint(t, node, ctx, 42)
			if base == "" {
				base = fp
			} else if fp != base {
				t.Fatalf("workers=%d diverges from workers=1 on %s", workers, node.String())
			}
		}
	}
}

func TestParallelAggMergesMaterializedSample(t *testing.T) {
	tbl := bigOrders(30000)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: tbl},
		Kind:  plan.DistinctSample, P: 0.05, Delta: 12, StratCols: []string{"orders.cust"},
	}
	agg := &plan.Aggregate{
		Child:   syn,
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}

	build := func(workers int) *synopses.Sample {
		ctx := NewContext(0.95)
		ctx.Workers = workers
		ctx.MorselRows = 1000
		ctx.MaterializeSamples[syn] = "orders_sample"
		fingerprint(t, agg, ctx, 11)
		if len(ctx.Stats.BuiltSamples) != 1 {
			t.Fatalf("built samples = %d", len(ctx.Stats.BuiltSamples))
		}
		return ctx.Stats.BuiltSamples[0].Sample
	}

	s1 := build(1)
	s8 := build(8)
	if s1.SourceRows != 30000 || s8.SourceRows != 30000 {
		t.Fatalf("source rows = %d / %d, want 30000", s1.SourceRows, s8.SourceRows)
	}
	if s1.Strategy != "distinct" || s1.Delta != 12 {
		t.Fatalf("merged sample config = %s δ=%d, want distinct δ=12", s1.Strategy, s1.Delta)
	}
	if s1.Rows.Name != "orders_sample" {
		t.Fatalf("sample name = %q", s1.Rows.Name)
	}
	if s1.Rows.NumRows() != s8.Rows.NumRows() || s1.Rows.Bytes() != s8.Rows.Bytes() {
		t.Fatalf("materialized sample differs across worker counts: %d rows/%d bytes vs %d rows/%d bytes",
			s1.Rows.NumRows(), s1.Rows.Bytes(), s8.Rows.NumRows(), s8.Rows.Bytes())
	}
	// Every stratum must be covered (the distinct sampler's guarantee holds
	// per morsel, hence globally).
	custs := make(map[int64]bool)
	for i := 0; i < s8.Rows.NumRows(); i++ {
		custs[s8.Rows.Column(1).I64[i]] = true
	}
	if len(custs) != 10 {
		t.Fatalf("sample covers %d/10 strata", len(custs))
	}
}

func TestParallelAggEmptyInput(t *testing.T) {
	empty := storage.NewBuilder("e", storage.Schema{
		{Name: "e.k", Typ: storage.Int64},
		{Name: "e.v", Typ: storage.Float64},
	}).Build(1)
	// Global aggregate over empty input: one row, COUNT 0.
	agg := &plan.Aggregate{
		Child: &plan.Scan{Table: empty},
		Aggs:  []plan.AggSpec{{Kind: stats.Count}},
	}
	ctx := NewContext(0.95)
	ctx.Workers = 4
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 1 || rows[0][0].F != 0 {
		t.Fatalf("global aggregate over empty input = %v, want one zero row", rows)
	}
	// Grouped aggregate over empty input: no rows.
	gagg := &plan.Aggregate{
		Child:   &plan.Scan{Table: empty},
		GroupBy: []string{"e.k"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	ctx2 := NewContext(0.95)
	if rows := allRows(runPlan(t, gagg, ctx2)); len(rows) != 0 {
		t.Fatalf("grouped aggregate over empty input = %v rows", rows)
	}
}

func TestParallelAggSamplerErrors(t *testing.T) {
	ctx := NewContext(0.95)
	agg := &plan.Aggregate{
		Child: &plan.SynopsisOp{
			Child: &plan.Scan{Table: ordersTable()},
			Kind:  plan.DistinctSample, P: 0.1, Delta: 5, StratCols: []string{"nope"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	if _, err := Compile(agg, 1, ctx); err == nil {
		t.Fatal("want unknown stratification column error from parallel compile")
	}
}
