package storage_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

// sampleKinds returns the kinds of sampler the plan set's build candidates
// would materialize.
func sampleKinds(ps *planner.PlanSet) []plan.SynopsisKind {
	var out []plan.SynopsisKind
	for _, c := range ps.Candidates {
		for _, cr := range c.Creates {
			if cr.SampleNode != nil {
				out = append(out, cr.SampleNode.Kind)
			}
		}
	}
	return out
}

// TestPlanCountsOnlyWhatItReads: planning q1, q8, q12 and q15 over a fresh
// TPC-H sf 0.1 lineitem version computes no statistic their plans do not
// read. l_extendedprice, which only SUM and AVG read, gets its moments and
// no group count, and q8's and q12's stratification sets — join key plus
// group or filter column, about 600 000 and 480 000 groups — stay
// uncounted, because both plans sample uniformly. A query whose plan is a
// distinct sampler does count its set; the same query with a wider filter
// samples uniformly and does not.
func TestPlanCountsOnlyWhatItReads(t *testing.T) {
	w := workload.TPCH(0.1, 1)
	none := func(name string) *storage.Table {
		tbl, err := w.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return storage.NewBuilder(name, tbl.Schema()).Build(1)
	}
	fresh := func() *storage.Table {
		v, err := w.Catalog.Append("lineitem", none("lineitem"))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	pl := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<30, 1<<30, nil), storage.DefaultCostModel())
	planSQL := func(sql string) *planner.PlanSet {
		q, err := sqlparser.Parse(sql+" ERROR WITHIN 10% AT CONFIDENCE 95%", w.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := pl.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	li := fresh()
	r := rand.New(rand.NewSource(5))
	for _, tpl := range w.Templates {
		if !slices.Contains([]string{"q1", "q8", "q12", "q15"}, tpl.Name) {
			continue
		}
		kinds := sampleKinds(planSQL(tpl.Instantiate(r)))
		if (tpl.Name == "q8" || tpl.Name == "q12") && !slices.Equal(kinds, []plan.SynopsisKind{plan.UniformSample}) {
			t.Fatalf("%s builds %v, want one uniform sample: the check below would not test the deferred count", tpl.Name, kinds)
		}
	}
	groups, moments, sets := li.Computed()
	t.Logf("group parts %v; moment parts %v; sets %q", groups, moments, sets)
	if slices.Contains(groups, "lineitem.l_extendedprice") {
		t.Error("l_extendedprice's group part was counted; no plan reads it")
	}
	if !slices.Contains(moments, "lineitem.l_extendedprice") {
		t.Error("l_extendedprice's moments were not folded; the sample sizing reads them")
	}
	for _, set := range []string{"lineitem.l_orderkey,lineitem.l_partkey", "lineitem.l_orderkey,lineitem.l_shipmode"} {
		if slices.Contains(sets, set) {
			t.Errorf("the stratification set (%s) was counted for a uniform plan", set)
		}
	}
	if !slices.Contains(sets, "lineitem.l_linestatus,lineitem.l_returnflag") {
		t.Errorf("q1's group set was not counted; its coverage reads it (sets %q)", sets)
	}

	const strat = "lineitem.l_returnflag,lineitem.l_suppkey"
	for _, c := range []struct {
		days int
		kind plan.SynopsisKind
	}{{15, plan.DistinctSample}, {30, plan.UniformSample}} {
		li := fresh()
		sql := fmt.Sprintf("SELECT l_returnflag, SUM(l_quantity) FROM lineitem JOIN supplier ON l_suppkey = s_suppkey WHERE l_shipdate < %d GROUP BY l_returnflag", c.days)
		if kinds := sampleKinds(planSQL(sql)); !slices.Equal(kinds, []plan.SynopsisKind{c.kind}) {
			t.Fatalf("l_shipdate < %d builds %v, want %v", c.days, kinds, c.kind)
		}
		_, _, sets := li.Computed()
		if counted := slices.Contains(sets, strat); counted != (c.kind == plan.DistinctSample) {
			t.Errorf("l_shipdate < %d, a %v plan: stratification set (%s) counted = %v", c.days, c.kind, strat, counted)
		}
	}
}

// statsSelectivity is expr.Selectivity as it read a whole-version Stats:
// the reference that reading range bounds from zone maps must equal. A range
// term interpolates only over a positive, finite span of the bounds.
func statsSelectivity(p expr.Pred, tbl *storage.Table) float64 {
	if len(p) == 0 {
		return 1
	}
	sel := 1.0
	st := tbl.Stats()
	for _, t := range p {
		i := tbl.Schema().Index(t.Col)
		if i < 0 {
			continue
		}
		cs := st.Columns[i]
		switch {
		case t.Op == expr.IN:
			if cs.Distinct > 0 {
				sel *= math.Min(1, float64(len(t.List))/float64(cs.Distinct))
			}
		case t.Op == expr.EQ:
			if cs.Distinct > 0 {
				sel *= 1 / float64(cs.Distinct)
			}
		case t.Op == expr.NE:
			if cs.Distinct > 0 {
				sel *= 1 - 1/float64(cs.Distinct)
			}
		default:
			if span := cs.Max - cs.Min; t.Val.Typ.Numeric() && span > 0 && !math.IsInf(span, 1) {
				v := t.Val.AsFloat()
				frac := (v - cs.Min) / (cs.Max - cs.Min)
				frac = math.Max(0, math.Min(1, frac))
				if t.Op == expr.GT || t.Op == expr.GE {
					frac = 1 - frac
				}
				sel *= frac
			} else {
				sel *= 0.3
			}
		}
	}
	return math.Max(sel, 1e-9)
}

// TestSelectivityFromZoneBoundsMatchesStats: Selectivity, reading a range
// term's bounds from the partitions' zone maps and an equality term's
// distinct count from the column's group part, equals bit for bit what it
// read from a whole-version Stats, on random tables whose partitions
// include empty ones, all-NaN ones, ones that open on -0 or +0, and ±Inf —
// and on a table of empty partitions only. It lives beside TableOfParts,
// the one way to lay out empty partitions in a table that has rows.
func TestSelectivityFromZoneBoundsMatchesStats(t *testing.T) {
	schema := storage.Schema{
		{Name: "t.i", Typ: storage.Int64}, {Name: "t.f", Typ: storage.Float64},
		{Name: "t.s", Typ: storage.String}, {Name: "t.b", Typ: storage.Bool},
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -3, 7.25}
	literals := []storage.Value{
		storage.IntValue(0), storage.IntValue(-2), storage.IntValue(9), storage.FloatValue(0.25),
		storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(math.Inf(1)), storage.StringValue("m"),
	}
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE, expr.IN}
	r := rand.New(rand.NewSource(1))
	for draw := 0; draw < 400; draw++ {
		nparts := 1 + r.Intn(5)
		parts := make([][]*storage.Vector, nparts)
		for p := range parts {
			n := []int{0, 1, 3, 20}[r.Intn(4)]
			if draw%40 == 0 {
				n = 0
			}
			allNaN := r.Intn(4) == 0
			cols := []*storage.Vector{
				storage.NewVector(storage.Int64, n), storage.NewVector(storage.Float64, n),
				storage.NewVector(storage.String, n), storage.NewVector(storage.Bool, n),
			}
			for k := 0; k < n; k++ {
				cols[0].I64 = append(cols[0].I64, int64(r.Intn(21)-10))
				f := floats[r.Intn(len(floats))]
				if allNaN {
					f = math.NaN()
				}
				cols[1].F64 = append(cols[1].F64, f)
				cols[2].Str = append(cols[2].Str, string(rune('a'+r.Intn(26))))
				cols[3].B = append(cols[3].B, r.Intn(2) == 0)
			}
			parts[p] = cols
		}
		tbl := storage.TableOfParts("t", schema, parts...)
		var pred expr.Pred
		for range 1 + r.Intn(3) {
			term := expr.Term{Col: schema[r.Intn(len(schema))].Name, Op: ops[r.Intn(len(ops))], Val: literals[r.Intn(len(literals))]}
			if term.Op == expr.IN {
				term.List = literals[:1+r.Intn(len(literals))]
			}
			pred = append(pred, term)
		}
		got := expr.Selectivity(pred, tbl)
		want := statsSelectivity(pred, tbl)
		if math.Float64bits(got) != math.Float64bits(want) {
			var shape []string
			for p := range tbl.Partitions() {
				shape = append(shape, fmt.Sprint(tbl.Zone(p).Rows))
			}
			t.Fatalf("draw %d, partitions of %s rows, %v: Selectivity %v, from Stats %v", draw, strings.Join(shape, "/"), pred, got, want)
		}
	}

	// A column holding both infinities has an infinite span: a range term
	// over it takes the default, not Inf/Inf.
	inf := storage.TableOfParts("t", schema[1:2], []*storage.Vector{{Typ: storage.Float64, F64: []float64{math.Inf(-1), 0.5, math.Inf(1)}}})
	pred := expr.Pred{{Col: "t.f", Op: expr.GT, Val: storage.IntValue(9)}}
	if sel := expr.Selectivity(pred, inf); math.IsNaN(sel) || sel < 1e-9 || sel > 1 {
		t.Fatalf("t.f > 9 over a column holding -Inf and +Inf: Selectivity %v, want a finite fraction in [1e-9, 1]", sel)
	}
}
