package workload

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
)

func TestTPCHGeneration(t *testing.T) {
	w := TPCH(0.002, 1)
	for _, tbl := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		if _, err := w.Catalog.Table(tbl); err != nil {
			t.Fatalf("missing table %s: %v", tbl, err)
		}
	}
	li, _ := w.Catalog.Table("lineitem")
	or, _ := w.Catalog.Table("orders")
	if li.NumRows() != or.NumRows()*4 {
		t.Fatalf("lineitem %d != 4×orders %d", li.NumRows(), or.NumRows())
	}
	if len(w.Templates) != 18 {
		t.Fatalf("templates = %d, want 18 (paper uses 18 of 22)", len(w.Templates))
	}
	if w.TotalRows <= 0 || w.Catalog.TotalBytes() <= 0 {
		t.Fatal("scale accounting")
	}
}

func TestTPCHEpochs(t *testing.T) {
	// Fig. 6 epochs from the paper.
	want := map[int][]string{
		1: {"q6", "q14", "q17"},
		2: {"q5", "q8", "q11", "q12"},
		3: {"q1", "q3", "q16", "q19"},
		4: {"q7", "q9", "q13", "q18"},
	}
	for e, names := range want {
		got := TPCHEpoch(e)
		if len(got) != len(names) {
			t.Fatalf("epoch %d = %v, want %v", e, got, names)
		}
		for i := range names {
			if got[i] != names[i] {
				t.Fatalf("epoch %d = %v, want %v", e, got, names)
			}
		}
	}
}

// Every template of every workload must parse, bind and execute end to end.
func TestAllTemplatesExecutable(t *testing.T) {
	workloads := []*Workload{TPCH(0.002, 1), TPCDS(0.002, 2), Instacart(0.02, 3)}
	for _, w := range workloads {
		bytes, rows := w.CostScale()
		eng := core.New(w.Catalog, core.Config{
			Mode:          core.ModeTaster,
			StorageBudget: bytes / 2,
			BufferSize:    bytes / 4,
			CostModel:     storage.ScaledCostModel(bytes, rows),
			Seed:          9,
		})
		for _, tmpl := range w.Templates {
			qsql := tmpl.Instantiate(rand.New(rand.NewSource(7))) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
			q, err := sqlparser.Parse(qsql, w.Catalog)
			if err != nil {
				t.Fatalf("%s/%s: parse: %v\nSQL: %s", w.Name, tmpl.Name, err, qsql)
			}
			res, err := eng.Execute(q)
			if err != nil {
				t.Fatalf("%s/%s: execute: %v\nSQL: %s", w.Name, tmpl.Name, err, qsql)
			}
			if res == nil {
				t.Fatalf("%s/%s: nil result", w.Name, tmpl.Name)
			}
		}
	}
}

func TestQueriesInstantiation(t *testing.T) {
	w := TPCH(0.002, 1)
	qs := w.Queries(20, 7)
	if len(qs) != 20 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if !strings.Contains(q, "ERROR WITHIN 10%") {
			t.Fatalf("missing accuracy clause: %s", q)
		}
	}
	// Deterministic for equal seeds, varying across seeds.
	qs2 := w.Queries(20, 7)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("instantiation must be deterministic per seed")
		}
	}
	if w.Queries(5, 8)[0] == qs[0] && w.Queries(5, 9)[0] == qs[0] {
		t.Fatal("different seeds should vary queries")
	}
}

func TestQueriesFromTemplates(t *testing.T) {
	w := TPCH(0.002, 1)
	qs := w.QueriesFromTemplates([]string{"q6"}, 5, 3)
	if len(qs) != 5 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if !strings.Contains(q, "l_discount") {
			t.Fatalf("not a q6 instance: %s", q)
		}
	}
	if got := w.QueriesFromTemplates([]string{"nope"}, 5, 3); got != nil {
		t.Fatal("unknown template must return nil")
	}
}

func TestInstacartTableIShapes(t *testing.T) {
	w := Instacart(0.02, 3)
	sketch, sample := 0, 0
	for _, tmpl := range w.Templates {
		switch tmpl.Kind {
		case "sketch":
			sketch++
		case "sample":
			sample++
		}
	}
	if sketch != 4 || sample != 4 {
		t.Fatalf("Table I = %d sketch + %d sample templates, want 4+4", sketch, sample)
	}
	// Product popularity must be heavy-tailed (drives sketch usefulness).
	op, _ := w.Catalog.Table("orderproducts")
	st := op.Stats()
	i := op.Schema().Index("orderproducts.op_product_id")
	if !st.Columns[i].Skewed {
		t.Fatal("op_product_id must be skewed")
	}
}

func TestTPCDSShape(t *testing.T) {
	w := TPCDS(0.002, 2)
	if len(w.Templates) != 20 {
		t.Fatalf("templates = %d, want 20", len(w.Templates))
	}
	ss, _ := w.Catalog.Table("store_sales")
	dd, _ := w.Catalog.Table("date_dim")
	if ss.NumRows() < dd.NumRows() {
		t.Fatal("fact must dominate dimensions")
	}
}
