package plan

import (
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

func mkTable(name string, cols ...string) *storage.Table {
	schema := make(storage.Schema, len(cols))
	for i, c := range cols {
		schema[i] = storage.Col{Name: name + "." + c, Typ: storage.Int64}
	}
	b := storage.NewBuilder(name, schema)
	for r := 0; r < 10; r++ {
		for i := range cols {
			b.Int(i, int64(r+i))
		}
	}
	return b.Build(2)
}

func samplePlan() (*Aggregate, *storage.Table, *storage.Table) {
	r := mkTable("r", "x", "y", "v")
	s := mkTable("s", "x", "z")
	j := &Join{
		Left: &Filter{
			Child: &Scan{Table: r},
			Pred:  expr.Pred{expr.Compare("r.y", expr.GT, storage.IntValue(1))},
		},
		Right:     &Scan{Table: s},
		LeftKeys:  []string{"r.x"},
		RightKeys: []string{"s.x"},
	}
	agg := &Aggregate{
		Child:   j,
		GroupBy: []string{"s.z"},
		Aggs:    []AggSpec{{Kind: stats.Sum, Col: "r.v"}},
	}
	return agg, r, s
}

func TestFormatShowsTree(t *testing.T) {
	agg, _, _ := samplePlan()
	out := Format(agg)
	if !strings.Contains(out, "Aggregate") || !strings.Contains(out, "  Join") ||
		!strings.Contains(out, "    Filter") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestAggSpecAlias(t *testing.T) {
	a := AggSpec{Kind: stats.Sum, Col: "r.v"}
	if a.DefaultAlias() != "sum_r_v" {
		t.Fatalf("alias = %q", a.DefaultAlias())
	}
	b := AggSpec{Kind: stats.Count, Alias: "n"}
	if b.DefaultAlias() != "n" {
		t.Fatalf("alias = %q", b.DefaultAlias())
	}
	c := AggSpec{Kind: stats.Count}
	if c.DefaultAlias() != "count_star" {
		t.Fatalf("alias = %q", c.DefaultAlias())
	}
}

// TestSketchJoinSchema: a sketch-join's inputs are its probe side, and its
// build side only while the sketch is built inline.
func TestSketchJoinSchema(t *testing.T) {
	r := mkTable("r", "x", "g")
	sj := &SketchJoin{
		Probe:     &Scan{Table: r},
		ProbeKeys: []string{"r.x"},
		BuildKeys: []string{"f.x"},
		AggCol:    "f.v",
		GroupBy:   []string{"r.g"},
		Aggs:      []AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "f.v"}},
	}
	if len(sj.Children()) != 1 {
		t.Fatal("children without build")
	}
	sj.Build = &Scan{Table: r}
	if len(sj.Children()) != 2 {
		t.Fatal("children with build")
	}
}

func TestSynopsisScanString(t *testing.T) {
	smp := &synopses.Sample{Rows: mkTable("samp", "a"), Strategy: "uniform"}
	ss := &SynopsisScan{SynopsisID: 7, Sample: smp, Label: "r"}
	if !strings.Contains(ss.String(), "#7") {
		t.Fatalf("string = %q", ss.String())
	}
}
