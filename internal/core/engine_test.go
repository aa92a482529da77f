package core

import (
	"math"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

func testCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	sales := storage.NewBuilder("sales", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: "sales.qty", Typ: storage.Float64},
		{Name: "sales.price", Typ: storage.Float64},
	})
	for i := 0; i < 30000; i++ {
		sales.Int(0, int64(i%40))
		sales.Float(1, float64(i%7+1))
		sales.Float(2, float64(i%100)+0.5)
	}
	cat.Register(sales.Build(4))

	products := storage.NewBuilder("products", storage.Schema{
		{Name: "products.id", Typ: storage.Int64},
		{Name: "products.category", Typ: storage.Int64},
	})
	for i := 0; i < 40; i++ {
		products.Int(0, int64(i))
		products.Int(1, int64(i%4))
	}
	cat.Register(products.Build(1))
	return cat
}

// testEngine builds a synchronous-mode engine: the inline tuning round
// keeps these behavioural tests deterministic. The asynchronous pipeline
// has its own suite in async_test.go.
func testEngine(mode Mode) *Engine {
	return testEngineOver(testCatalog(), mode)
}

// testEngineOver is testEngine over a given catalog.
func testEngineOver(cat *storage.Catalog, mode Mode) *Engine {
	return New(cat, Config{
		Mode:          mode,
		StorageBudget: cat.TotalBytes(), // 100% budget
		BufferSize:    cat.TotalBytes(),
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		Synchronous:   true,
	})
}

func catQuery(e *Engine) *planner.Query {
	sales, _ := e.Catalog().Table("sales")
	products, _ := e.Catalog().Table("products")
	return &planner.Query{
		Tables: []planner.TableRef{{Name: "sales", Table: sales}, {Name: "products", Table: products}},
		Joins: []planner.JoinPred{{
			LeftTable: "sales", LeftCol: "sales.product",
			RightTable: "products", RightCol: "products.id",
		}},
		GroupBy:  []string{"products.category"},
		Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "sales.qty"}},
		Accuracy: stats.DefaultAccuracy,
	}
}

func exactAnswer(t *testing.T) map[int64]float64 {
	t.Helper()
	e := testEngine(ModeExact)
	res, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]float64)
	for _, r := range res.Rows {
		out[r[0].I] = r[1].F
	}
	return out
}

func TestExactModeAnswers(t *testing.T) {
	truth := exactAnswer(t)
	if len(truth) != 4 {
		t.Fatalf("categories = %d", len(truth))
	}
	total := 0.0
	for _, v := range truth {
		total += v
	}
	want := 0.0
	for i := 0; i < 30000; i++ {
		want += float64(i%7 + 1)
	}
	if math.Abs(total-want) > 1e-6 {
		t.Fatalf("exact total %v != %v", total, want)
	}
}

func TestTasterConvergesToReuse(t *testing.T) {
	e := testEngine(ModeTaster)
	truth := exactAnswer(t)

	var first, last *Result
	created := 0
	for i := 0; i < 6; i++ {
		res, err := e.Execute(catQuery(e))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		}
		last = res
		created += len(res.Report.CreatedSynopses)
		// Group coverage: all 4 categories, every run.
		if len(res.Rows) != 4 {
			t.Fatalf("run %d: %d groups (missing groups!)", i, len(res.Rows))
		}
		for _, r := range res.Rows {
			want := truth[r[0].I]
			if rel := math.Abs(r[1].F-want) / want; rel > 0.15 {
				t.Fatalf("run %d cat %d: rel error %.3f > 15%%", i, r[0].I, rel)
			}
		}
	}
	// By the last run, the engine must be reusing a synopsis and the
	// simulated time must have dropped well below the first (cold) run.
	if len(last.Report.UsedSynopses) == 0 {
		t.Fatalf("no synopsis reuse by run 6: %+v", last.Report)
	}
	coldScan := first.Report.SimSeconds - 2.0 // strip tuning overhead
	warmScan := last.Report.SimSeconds - 2.0
	if warmScan > coldScan*0.5 {
		t.Fatalf("reuse did not speed up: cold %.3f warm %.3f", coldScan, warmScan)
	}
	// Telemetry must show materialization happened at some point.
	if created == 0 {
		t.Fatal("no synopses were materialized")
	}
}

func TestQuickrNeverReuses(t *testing.T) {
	e := testEngine(ModeQuickr)
	for i := 0; i < 3; i++ {
		res, err := e.Execute(catQuery(e))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.UsedSynopses) != 0 || len(res.Report.CreatedSynopses) != 0 {
			t.Fatalf("quickr must not reuse/materialize: %+v", res.Report)
		}
	}
	// Warehouse must stay empty.
	if items := e.Warehouse().WarehouseItems(); len(items) != 0 {
		t.Fatalf("quickr warehouse has %d items", len(items))
	}
	bu, _ := e.Warehouse().Usage()
	if bu != 0 {
		t.Fatal("quickr buffer must stay empty")
	}
}

func TestExactModeForcesExactPlans(t *testing.T) {
	e := testEngine(ModeExact)
	res, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PlanDesc != "exact" {
		t.Fatalf("plan = %q", res.Report.PlanDesc)
	}
	for _, row := range res.Intervals {
		for _, iv := range row {
			if iv.HalfWidth != 0 {
				t.Fatal("exact mode must have zero-width intervals")
			}
		}
	}
}

func TestStorageElasticityEvicts(t *testing.T) {
	e := testEngine(ModeTaster)
	for i := 0; i < 5; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Shrink to zero: everything must go.
	e.SetStorageBudget(0)
	if items := e.Warehouse().WarehouseItems(); len(items) != 0 {
		t.Fatalf("%d items survive zero budget", len(items))
	}
	// Engine still answers queries (exact or inline-sampled).
	res, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatal("query after shrink must still answer")
	}
}

func TestPinSampleServesQueries(t *testing.T) {
	e := testEngine(ModeTaster)
	sales, _ := e.Catalog().Table("sales")
	smp := synopses.BuildSampleFromTable("hint", sales,
		synopses.NewDistinctSampler(0.01, 10, []int{0}, 3),
		[]string{"sales.product"})
	id, err := e.PinSample("sales", smp,
		[]string{"sales.qty", "sales.price"},
		stats.AccuracySpec{RelError: 0.05, Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// Two fact-side aggregates make the query sketch-ineligible, so the
	// pinned sample is the only sub-exact plan.
	q := catQuery(e)
	q.Aggs = []plan.AggSpec{
		{Kind: stats.Sum, Col: "sales.qty"},
		{Kind: stats.Sum, Col: "sales.price"},
	}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range res.Report.UsedSynopses {
		if u == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("first query must already reuse the pinned sample, used=%v plan=%s",
			res.Report.UsedSynopses, res.Report.PlanDesc)
	}
	// Pinned samples survive elasticity shocks.
	e.SetStorageBudget(1)
	if !e.Warehouse().Has(id) {
		t.Fatal("pinned sample evicted by quota change")
	}
}

// TestFailedPinLeavesNoPinnedPhantom: a hint larger than the warehouse quota
// is refused, and nothing may remember it as pinned — a pinned member joins
// S* unconditionally, so a phantom would sit in every keep set (and every
// checkpoint) while no tier holds it.
func TestFailedPinLeavesNoPinnedPhantom(t *testing.T) {
	cat := testCatalog()
	e := New(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: 1 << 10, // smaller than the hint
		BufferSize:    cat.TotalBytes(),
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		Synchronous:   true,
	})
	sales, _ := cat.Table("sales")
	smp := synopses.BuildSampleFromTable("hint", sales, synopses.NewUniformSampler(0.05, 3), nil)
	if smp.SizeBytes() <= 1<<10 {
		t.Fatalf("test setup: hint of %d bytes fits the quota", smp.SizeBytes())
	}
	before := e.store.NextID()
	if _, err := e.PinSample("sales", smp, []string{"sales.qty"}, stats.DefaultAccuracy); err == nil {
		t.Fatal("pinning a hint larger than the warehouse quota succeeded")
	}
	id := e.store.NextID()
	if id != before+1 || e.wh.Has(id) {
		t.Fatalf("test setup: the refused hint interned #%d (after #%d), stored %t", id, before, e.wh.Has(id))
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	if e.tn.Retune().Keep[id] {
		t.Fatalf("refused hint #%d is in the tuner's S*", id)
	}
	if e.snap.Load().keep[id] {
		t.Fatalf("refused hint #%d is in the published keep set", id)
	}
}

func TestAccuracyDefaultApplied(t *testing.T) {
	e := testEngine(ModeTaster)
	q := catQuery(e)
	q.Accuracy = stats.AccuracySpec{} // invalid → default
	if _, err := e.Execute(q); err != nil {
		t.Fatal(err)
	}
	if !q.Accuracy.Valid() {
		t.Fatal("default accuracy not applied")
	}
}

func TestFilteredQueryCompensation(t *testing.T) {
	// Build a general synopsis with an unfiltered query, then check a
	// filtered query still returns correct (restricted) groups — the
	// paper's Employees/gender example.
	e := testEngine(ModeTaster)
	for i := 0; i < 4; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	q := catQuery(e)
	q.Filter = &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "products.category"}, R: expr.Int(2)}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("filtered groups = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].I >= 2 {
			t.Fatalf("filter violated: category %d in result", r[0].I)
		}
	}
}

func TestReportsAccumulate(t *testing.T) {
	e := testEngine(ModeTaster)
	for i := 0; i < 3; i++ {
		res, err := e.Execute(catQuery(e))
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Report; r.QueryID != i || r.SimSeconds <= 0 || r.PlanTree == "" {
			t.Fatalf("report %d malformed: %+v", i, r)
		}
	}
}

func TestModeStringOutOfRange(t *testing.T) {
	if got := Mode(7).String(); got != "mode(7)" {
		t.Fatalf("Mode(7).String() = %q", got)
	}
}
