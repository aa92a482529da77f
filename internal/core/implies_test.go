package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
)

// bigTSCatalog is testCatalog with a nanosecond-scale Int64 column on the
// fact table: sales.ts holds 2^53 and 2^53+2 alternately, two integers
// float64 tells apart while 2^53+1 between them rounds onto 2^53.
func bigTSCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	sales := storage.NewBuilder("sales", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: "sales.qty", Typ: storage.Float64},
		{Name: "sales.ts", Typ: storage.Int64},
	})
	for i := 0; i < 30000; i++ {
		sales.Int(0, int64(i%40))
		sales.Float(1, float64(i%7+1))
		sales.Int(2, 1<<53+int64(i%2)*2)
	}
	cat.Register(sales.Build(4))
	products, _ := testCatalog().Table("products")
	cat.Register(products)
	return cat
}

// TestSketchJoinNotReusedAcrossBigKeys: a sketch-join built for
// sales.ts = 2^53 summarizes the rows with that key, so it must not serve
// sales.ts = 2^53+1, which no row holds — the two filters are equivalent
// only if reasoned about in float64. The second query's answer is the exact
// one: no rows.
func TestSketchJoinNotReusedAcrossBigKeys(t *testing.T) {
	cat := bigTSCatalog()
	query := func(e *Engine, ts int64) *Result {
		t.Helper()
		q := catQuery(e)
		q.Filter = expr.Pred{expr.Compare("sales.ts", expr.EQ, storage.IntValue(ts))}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	e := testEngineOver(cat, ModeTaster)
	var sketch uint64
	for i := 0; i < 6 && sketch == 0; i++ {
		query(e, 1<<53)
		for _, en := range e.Store().Entries() {
			if en.Desc.Kind == plan.SketchJoinSynopsis && e.Warehouse().Has(en.Desc.ID) {
				sketch = en.Desc.ID
			}
		}
	}
	if sketch == 0 {
		t.Fatal("no sketch-join was built for sales.ts = 2^53")
	}
	got := query(e, 1<<53+1)
	if slices.Contains(got.Report.UsedSynopses, sketch) {
		t.Fatalf("sales.ts = 2^53+1 reused the sketch-join #%d built for sales.ts = 2^53", sketch)
	}
	want := query(New(cat, testConfig(cat, ModeExact)), 1<<53+1)
	if len(want.Rows) != 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("sales.ts = 2^53+1: got %v, exact %v (want no rows)", got.Rows, want.Rows)
	}
}
