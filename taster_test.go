package taster_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	taster "github.com/tasterdb/taster"
)

func demoCatalog() *taster.Catalog {
	cat := taster.NewCatalog()
	sales := taster.NewTableBuilder("sales", taster.Schema{
		{Name: "sales.cust", Typ: taster.Int64},
		{Name: "sales.amount", Typ: taster.Float64},
	})
	for i := 0; i < 20000; i++ {
		sales.Int(0, int64(i%8))
		sales.Float(1, float64(i%500))
	}
	cat.Register(sales.Build(4))

	customers := taster.NewTableBuilder("customers", taster.Schema{
		{Name: "customers.id", Typ: taster.Int64},
		{Name: "customers.region", Typ: taster.String},
	})
	for i := 0; i < 8; i++ {
		customers.AddRow(taster.Value{Typ: taster.Int64, I: int64(i)},
			taster.Value{Typ: taster.String, S: []string{"north", "south"}[i%2]})
	}
	cat.Register(customers.Build(1))
	return cat
}

func TestPublicAPIEndToEnd(t *testing.T) {
	eng := taster.MustOpen(demoCatalog(), taster.Options{Seed: 3, SimulatedScale: true})
	defer eng.Close()
	const sql = `SELECT region, SUM(amount), COUNT(*) FROM sales
		JOIN customers ON sales.cust = customers.id
		GROUP BY region ERROR WITHIN 10% AT CONFIDENCE 95%`

	var last *taster.Result
	for i := 0; i < 5; i++ {
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		// The tuner runs in the background by default; the barrier makes
		// the warmup (materialize → reuse) deterministic for the asserts.
		eng.Drain()
		if len(res.Rows) != 2 {
			t.Fatalf("run %d: groups = %d", i, len(res.Rows))
		}
		// True totals: each region has 10000 rows; SUM ≈ 10000·≈249.75.
		for r, row := range res.Rows {
			cnt := row[2].F
			if math.Abs(cnt-10000) > 3000 {
				t.Fatalf("count = %v", cnt)
			}
			if len(res.Intervals[r]) != 2 {
				t.Fatalf("intervals per row = %d", len(res.Intervals[r]))
			}
		}
		last = res
	}
	if last.Stats.Plan == "" || last.Stats.SimulatedSeconds <= 0 {
		t.Fatalf("stats = %+v", last.Stats)
	}
	// After several identical queries the engine must hold synopses.
	if buf, wh := eng.WarehouseUsage(); buf+wh == 0 {
		t.Fatal("no synopses materialized")
	}
	if len(eng.Synopses()) == 0 {
		t.Fatal("Synopses() empty")
	}
}

func TestPublicAPIIngest(t *testing.T) {
	eng := taster.MustOpen(demoCatalog(), taster.Options{Seed: 3, SimulatedScale: true})
	defer eng.Close()
	const sql = `SELECT region, SUM(amount) FROM sales
		JOIN customers ON sales.cust = customers.id
		GROUP BY region ERROR WITHIN 10% AT CONFIDENCE 95%`
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
	// Append 20000 rows of amount 1000 (outside the seed's 0..499 range):
	// each region gains 10000·1000.
	delta := taster.NewTableBuilder("sales", taster.Schema{
		{Name: "sales.cust", Typ: taster.Int64},
		{Name: "sales.amount", Typ: taster.Float64},
	})
	for i := 0; i < 20000; i++ {
		delta.Int(0, int64(i%8))
		delta.Float(1, 1000)
	}
	epoch, err := eng.Ingest("sales", delta)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d", epoch)
	}
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := 10000*249.75 + 10000*1000 // per region: old mass + appended mass
	for _, row := range res.Rows {
		if rel := math.Abs(row[1].F-want) / want; rel > 0.12 {
			t.Fatalf("region %s after ingest: got %.0f want ≈%.0f (rel %.3f) — stale synopsis served?",
				row[0].S, row[1].F, want, rel)
		}
	}
	if _, err := eng.Ingest("nosuch", delta); err == nil {
		t.Fatal("ingest into unknown table accepted")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	eng := taster.MustOpen(demoCatalog(), taster.Options{})
	defer eng.Close()
	if _, err := eng.Query("SELECT nope FROM nowhere"); err == nil {
		t.Fatal("want error")
	}
	if err := eng.Hint("nowhere", nil, nil); err == nil {
		t.Fatal("want unknown table error")
	}
}

// TestTableBuilderRefusesBadRows: a row of the wrong arity or with a mistyped
// value does not panic the caller. It is refused whole, the first refusal is
// what TryBuild and Ingest return, and Build panics with it.
func TestTableBuilderRefusesBadRows(t *testing.T) {
	schema := taster.Schema{
		{Name: "sales.cust", Typ: taster.Int64},
		{Name: "sales.amount", Typ: taster.Float64},
	}
	good := []taster.Value{{Typ: taster.Int64, I: 1}, {Typ: taster.Float64, F: 2}}
	for _, c := range []struct {
		name string
		row  []taster.Value
		want string
	}{
		{"short row", good[:1], "1 values for 2 columns"},
		{"long row", append(good[:2:2], good[0]), "3 values for 2 columns"},
		{"mistyped value", []taster.Value{good[0], {Typ: taster.String, S: "x"}}, `VARCHAR value for DOUBLE column "sales.amount"`},
	} {
		b := taster.NewTableBuilder("sales", schema)
		b.AddRow(good...)
		b.AddRow(c.row...)
		b.AddRow(good[0], good[0]) // a later refusal does not replace the first
		if _, err := b.TryBuild(1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: TryBuild error %v, want one naming %q", c.name, err, c.want)
		}
		eng := taster.MustOpen(demoCatalog(), taster.Options{})
		if _, err := eng.Ingest("sales", b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Ingest error %v, want one naming %q", c.name, err, c.want)
		}
		eng.Close()
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Fatalf("%s: Build panicked with %v, want %q", c.name, r, c.want)
				}
			}()
			b.Build(1)
		}()
	}
	b := taster.NewTableBuilder("sales", schema)
	b.AddRow(good...)
	tbl, err := b.TryBuild(1)
	if err != nil || tbl.NumRows() != 1 {
		t.Fatalf("a well-typed row: %v", err)
	}
}

func TestPublicAPIHintAndElasticity(t *testing.T) {
	eng := taster.MustOpen(demoCatalog(), taster.Options{Seed: 5, SimulatedScale: true})
	defer eng.Close()
	if err := eng.Hint("sales", []string{"sales.cust"}, []string{"sales.amount"}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`SELECT cust, AVG(amount) FROM sales GROUP BY cust
		ERROR WITHIN 10% AT CONFIDENCE 95%`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Shrinking the budget must not break subsequent queries.
	eng.SetStorageBudget(1)
	if _, err := eng.Query(`SELECT COUNT(*) FROM sales`); err != nil {
		t.Fatal(err)
	}
}
