package exec

import (
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// TestFilterChargesEvaluatedRows: CPUTuples must count every row the
// predicate evaluated — selective filters do per-input-row work, and a batch
// where nothing survives is not free. (Regression: the charge used to be
// len(idx), the survivor count, which understated CPU on selective filters
// and charged zero for fully-filtered batches.)
func TestFilterChargesEvaluatedRows(t *testing.T) {
	schema := storage.Schema{{Name: "v", Typ: storage.Int64}}
	mk := func(vals ...int64) *storage.Batch {
		b := storage.NewBatch(schema, len(vals))
		b.Vecs[0].I64 = append(b.Vecs[0].I64, vals...)
		return b
	}
	// Three batches: all pass (4 rows), some pass (3 rows, 1 survivor), none
	// pass (5 rows). 12 rows evaluated, 5 survive.
	ctx := NewContext(0.95)
	pred := expr.Pred{expr.Compare("v", expr.GE, storage.IntValue(10))}
	prog, err := expr.CompileFilter(pred, schema)
	if err != nil {
		t.Fatal(err)
	}
	var sc expr.Scratch
	var out storage.Batch
	survived := 0
	for _, b := range []*storage.Batch{mk(10, 11, 12, 13), mk(10, 1, 2), mk(1, 2, 3, 4, 5)} {
		if b = refine(b, prog, nil, &out, &sc, ctx); b != nil {
			survived += b.Rows()
		}
	}
	if survived != 5 {
		t.Fatalf("survivors = %d, want 5", survived)
	}
	if ctx.Stats.CPUTuples != 12 {
		t.Fatalf("CPUTuples = %d, want 12 (rows evaluated, not %d survivors)",
			ctx.Stats.CPUTuples, survived)
	}
}

// TestFilterRefusesWhatKernelsCannotRun: there is no second evaluator to
// degrade to, so a predicate outside the kernel subset is a construction
// error naming the reason — from a build side's lowering and through
// Compile.
func TestFilterRefusesWhatKernelsCannotRun(t *testing.T) {
	tbl := ordersTable()
	pred := expr.Pred{expr.Compare("orders.id", expr.EQ, storage.StringValue("x"))}
	ctx := NewContext(0.95)
	if _, err := newBuildSide(&plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: pred}, "a join's build side", ctx); err == nil || !strings.Contains(err.Error(), `cannot compare BIGINT column "orders.id"`) {
		t.Fatalf("newBuildSide = %v, want the compile error", err)
	}
	// On the morsel spine the filters are compiled once per run, so the same
	// error surfaces from Compile — or, were it missed there, from the run —
	// as an error, never a worker panic.
	agg := &plan.Aggregate{
		Child: &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: pred},
		Aggs:  []plan.AggSpec{{Kind: stats.Count}},
	}
	op, err := Compile(agg, 1, ctx)
	if err == nil {
		_, err = Run(op)
	}
	if err == nil || !strings.Contains(err.Error(), `cannot compare BIGINT column "orders.id"`) {
		t.Fatalf("aggregate over an uncompilable filter = %v, want the compile error", err)
	}
}
