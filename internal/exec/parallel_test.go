package exec

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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
	return fmt.Sprintf("%v|%v", allRows(out), op.Intervals())
}

func TestParallelAggCompilesForPipelineShapes(t *testing.T) {
	tbl := ordersTable()
	agg := &plan.Aggregate{
		Child:   &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{expr.Compare("orders.id", expr.LT, storage.IntValue(500))}},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
	}
	if _, err := Compile(agg, 1, NewContext(0.95)); err != nil {
		t.Fatal(err)
	}

	// Join pipelines run on the same executor.
	j := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: tbl}, Right: &plan.Scan{Table: customersTable()},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	if _, err := Compile(j, 1, NewContext(0.95)); err != nil {
		t.Fatal(err)
	}

	// And so does a sketch-join: the same spine under the other sink.
	sj := &plan.SketchJoin{
		Probe: j.Child, Build: &plan.Scan{Table: tbl},
		ProbeKeys: []string{"orders.id"}, BuildKeys: []string{"orders.id"},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	if _, err := Compile(sj, 1, NewContext(0.95)); err != nil {
		t.Fatal(err)
	}
}

// TestParallelAggDeterministicAcrossWorkerCounts: the determinism contract —
// at a fixed seed and morsel size, rows, interval bits, the cost counters and
// the materialized sample's bytes are identical for any worker count,
// sampled paths included. The 64-row geometry gives every worker dozens of
// morsels, so partials are merged as morsels finish and reused many times
// over, under a reorder window that changes with the schedule; the string
// grouping over a filter reuses both the group index's string codes (past
// its dense array in some morsels) and the worker's filter scratch.
func TestParallelAggDeterministicAcrossWorkerCounts(t *testing.T) {
	tbl := bigOrders(30000)
	tb := storage.NewBuilder("tags", storage.Schema{
		{Name: "tags.tag", Typ: storage.String},
		{Name: "tags.k", Typ: storage.Int64},
		{Name: "tags.v", Typ: storage.Float64},
	})
	for i := 0; i < 30000; i++ {
		// 40 common tags, and in every tenth 4 000-row stretch 400 more: a
		// morsel there leaves its index's dense array.
		tag := fmt.Sprintf("t%d", (i*7)%40)
		if (i/4000)%10 == 3 {
			tag = fmt.Sprintf("r%d", i%400)
		}
		tb.Str(0, tag)
		tb.Int(1, int64(i%3))
		tb.Float(2, float64(i%89)/9)
	}
	tags := tb.Build(4)

	uniform := &plan.SynopsisOp{Child: &plan.Scan{Table: tbl}, Kind: plan.UniformSample, P: 0.2}
	distinct := &plan.SynopsisOp{
		Child: &plan.Scan{Table: tbl},
		Kind:  plan.DistinctSample, P: 0.1, Delta: 16, StratCols: []string{"orders.cust"},
	}
	for _, tc := range []struct {
		node    plan.Node
		sampler *plan.SynopsisOp // materialized, nil for none
	}{
		{&plan.Aggregate{
			Child:   uniform,
			GroupBy: []string{"orders.cust"},
			Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "orders.amount"}},
		}, uniform},
		{&plan.Aggregate{ // distinct sampler below a filter
			Child: &plan.Filter{
				Child: distinct,
				Pred:  expr.Pred{expr.Compare("orders.id", expr.LT, storage.IntValue(25000))},
			},
			GroupBy: []string{"orders.cust"},
			Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
		}, distinct},
		{&plan.Aggregate{ // string grouping over a two-term filter
			Child: &plan.Filter{
				Child: &plan.Scan{Table: tags},
				Pred: expr.Pred{
					expr.Compare("tags.tag", expr.NE, storage.StringValue("t3")),
					expr.Compare("tags.v", expr.GT, storage.FloatValue(1)),
				},
			},
			GroupBy: []string{"tags.tag"},
			Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Avg, Col: "tags.v"}, {Kind: stats.Sum, Col: "tags.k"}},
		}, nil},
	} {
		for _, geo := range []struct {
			morselRows int
			workers    []int
		}{{1000, []int{1, 3, 8, 16}}, {64, []int{1, 2, 4, 8}}} {
			var base, baseSample string
			var baseStats RunStats
			for _, workers := range geo.workers {
				ctx := NewContext(0.95)
				ctx.Workers = workers
				ctx.MorselRows = geo.morselRows
				if tc.sampler != nil {
					ctx.Materialize[tc.sampler] = 1
				}
				fp := fingerprint(t, tc.node, ctx, 42)
				var sample string
				if tc.sampler != nil {
					if len(ctx.Stats.Built) != 1 {
						t.Fatalf("built samples = %d, want 1", len(ctx.Stats.Built))
					}
					sample = tableBits(ctx.Stats.Built[0].Synopsis.(*synopses.Sample).Rows)
				}
				st := *ctx.Stats
				st.Built = nil
				if workers == 1 {
					base, baseSample, baseStats = fp, sample, st
					continue
				}
				where := fmt.Sprintf("morsel rows %d, workers=%d on %s", geo.morselRows, workers, tc.node.String())
				if fp != base {
					t.Fatalf("%s: rows or intervals diverge from workers=1", where)
				}
				if sample != baseSample {
					t.Fatalf("%s: materialized sample differs from workers=1", where)
				}
				if fmt.Sprintf("%+v", st) != fmt.Sprintf("%+v", baseStats) {
					t.Fatalf("%s: counters %+v, workers=1 %+v", where, st, baseStats)
				}
			}
		}
	}
}

// tableBits renders every cell of a table bit-exactly, floats by their bits.
func tableBits(tbl *storage.Table) string {
	var sb strings.Builder
	for c := range tbl.Schema() {
		v := tbl.Column(c)
		for i := 0; i < v.Len(); i++ {
			if v.Typ == storage.Float64 {
				fmt.Fprintf(&sb, "%x,", math.Float64bits(v.F64[i]))
			} else {
				fmt.Fprintf(&sb, "%v,", v.Get(i))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
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
		ctx.Materialize[syn] = 1
		fingerprint(t, agg, ctx, 11)
		if len(ctx.Stats.Built) != 1 {
			t.Fatalf("built samples = %d", len(ctx.Stats.Built))
		}
		return ctx.Stats.Built[0].Synopsis.(*synopses.Sample)
	}

	s1 := build(1)
	s8 := build(8)
	if s1.SourceRows != 30000 || s8.SourceRows != 30000 {
		t.Fatalf("source rows = %d / %d, want 30000", s1.SourceRows, s8.SourceRows)
	}
	if s1.Strategy != "distinct" || s1.Delta != 12 {
		t.Fatalf("merged sample config = %s δ=%d, want distinct δ=12", s1.Strategy, s1.Delta)
	}
	if s1.Rows.Name != "synopsis_1" {
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

// TestMorselStateDoesNotScaleWithMorsels is the tripwire on what a morsel
// builds: a grouped aggregate at one worker over the same rows, cut into 8
// and into 64 morsels — grouped by the leaf's numbering (a few hundred
// groups, and the q15 shape: a thousand under a range filter), by a join's
// build side, and value-keyed across the leaf and a dimension — and a
// sketch-join over a stored payload, grouped by the probe leaf's numbering
// and value-keyed. A worker
// keeps its sink partial and filter scratch across morsels, so eight times
// the morsels must cost well under twice the bytes per run; a partial, group
// index, slab translation or kernel scratch built per morsel again scales
// them with the morsel count.
func TestMorselStateDoesNotScaleWithMorsels(t *testing.T) {
	const rows = 64 * 512
	b := storage.NewBuilder("m", storage.Schema{
		{Name: "m.k", Typ: storage.Int64},
		{Name: "m.s", Typ: storage.String},
		{Name: "m.v", Typ: storage.Float64},
		{Name: "m.supp", Typ: storage.Int64},
		{Name: "m.ship", Typ: storage.Int64},
		{Name: "m.g", Typ: storage.Int64},
	})
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i%300))
		b.Str(1, fmt.Sprintf("s%d", i%7))
		b.Float(2, float64(i%101))
		b.Int(3, int64(i*7919%1000))
		b.Int(4, int64(i%2400))
		b.Int(5, int64(i%2048))
	}
	tbl := b.Build(1)
	d := storage.NewBuilder("d", storage.Schema{{Name: "d.k", Typ: storage.Int64}, {Name: "d.g", Typ: storage.String}})
	for k := 0; k < 300; k++ {
		d.Int(0, int64(k))
		d.Str(1, fmt.Sprintf("g%d", k))
	}
	dim := d.Build(1)
	filtered := &plan.Filter{
		Child: &plan.Scan{Table: tbl},
		Pred:  expr.Pred{expr.Compare("m.s", expr.NE, storage.StringValue("s3"))},
	}
	aggs := []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "m.v"}, {Kind: stats.Avg, Col: "m.v"}}
	// The sketch-joins probe a stored payload, d's one row per key.
	built, build := NewContext(0.95), &plan.SketchJoin{Probe: &plan.Scan{Table: tbl}, ProbeKeys: []string{"m.k"}, Build: &plan.Scan{Table: dim}, BuildKeys: []string{"d.k"},
		Aggs: []plan.AggSpec{{Kind: stats.Count}}}
	built.Materialize[build] = 1
	runPlan(t, build, built)
	sketch := func(probe plan.Node, groupBy ...string) plan.Node {
		return &plan.SketchJoin{Probe: probe, ProbeKeys: []string{"m.k"}, Sketch: built.Stats.Built[0].Synopsis.(*synopses.SketchJoin), BuildKeys: []string{"d.k"},
			GroupBy: groupBy, Aggs: aggs}
	}
	for _, c := range []struct {
		name string
		agg  plan.Node
	}{
		{"grouped by the leaf", &plan.Aggregate{Child: filtered, GroupBy: []string{"m.k"}, Aggs: aggs}},
		{"grouped by the leaf, 1 000 groups (q15)", &plan.Aggregate{
			Child: &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{
				expr.Compare("m.ship", expr.GE, storage.IntValue(300)), expr.Compare("m.ship", expr.LE, storage.IntValue(1900)),
			}},
			GroupBy: []string{"m.supp"}, Aggs: []plan.AggSpec{{Kind: stats.Sum, Col: "m.v"}},
		}},
		{"grouped through a join", &plan.Aggregate{
			Child:   &plan.Join{Left: filtered, Right: &plan.Scan{Table: dim}, LeftKeys: []string{"m.k"}, RightKeys: []string{"d.k"}},
			GroupBy: []string{"d.g"}, Aggs: aggs,
		}},
		{"value-keyed across the leaf and a dimension", &plan.Aggregate{
			Child:   &plan.Join{Left: filtered, Right: &plan.Scan{Table: dim}, LeftKeys: []string{"m.k"}, RightKeys: []string{"d.k"}},
			GroupBy: []string{"m.s", "d.g"}, Aggs: aggs,
		}},
		{"sketch-join grouped by the probe leaf, 2 048 groups, a few met a morsel", sketch(
			&plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{expr.Compare("m.k", expr.LT, storage.IntValue(3))}}, "m.g")},
		{"sketch-join value-keyed across the leaf and a dimension", sketch(
			&plan.Join{Left: filtered, Right: &plan.Scan{Table: dim}, LeftKeys: []string{"m.k"}, RightKeys: []string{"d.k"}}, "m.s", "d.g")},
	} {
		pool := storage.NewVecPool()
		bytesPerRun := func(morselRows int) uint64 {
			run := func() {
				ctx := NewContext(0.95)
				ctx.Workers, ctx.MorselRows, ctx.Pool = 1, morselRows, pool
				runPlan(t, c.agg, ctx)
			}
			run() // warm the pool
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		at8, at64 := bytesPerRun(rows/8), bytesPerRun(rows/64)
		t.Logf("%s: bytes per run: %d at 8 morsels, %d at 64", c.name, at8, at64)
		if at64 >= 2*at8 {
			t.Fatalf("%s: 64 morsels allocate %d bytes per run, 8 morsels %d: per-morsel state is no longer kept across morsels", c.name, at64, at8)
		}
	}
}

// TestMorselLeafReadAllocatesNothing: a worker reads a morsel's leaf batches
// through its one cursor into its one leaf batch — the leaf columns the
// spine reads and, folding by the leaf's numbering, the group ids after
// them — with no allocation per batch or per morsel. Morsel 0 straddles the
// first partition boundary of a four-partition table and the range filter
// zone-prunes the first partition, so only the second's rows are read.
func TestMorselLeafReadAllocatesNothing(t *testing.T) {
	tbl := bigOrders(10000)
	agg := &plan.Aggregate{
		Child: &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{
			expr.Compare("orders.id", expr.GE, storage.IntValue(2600)), expr.Compare("orders.id", expr.LE, storage.IntValue(9000)),
		}},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
	}
	ctx := NewContext(0.95)
	p, err := Compile(agg, 1, ctx)
	if err != nil {
		t.Fatal(err)
	}
	keep := p.pipe.open(ctx).keep
	w := p.newWorker()
	defer w.close()
	var spans [][2]int
	for w.cur.Seek(0, DefaultMorselRows, keep); w.cur.Next(&w.leaf); {
		spans = append(spans, [2]int{w.leaf.Start, w.leaf.Start + w.leaf.Len()})
		if ids := w.leaf.Vecs[len(w.leaf.Vecs)-1]; w.leaf.Schema[len(w.leaf.Vecs)-1].Name != groupIDCol || ids.Len() != w.leaf.Len() {
			t.Fatalf("leaf batch at %d carries no group ids: %v", w.leaf.Start, w.leaf.Schema.Names())
		}
	}
	if want := [][2]int{{2500, 3524}, {3524, 4096}}; fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Fatalf("morsel 0 read %v, want %v", spans, want)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for m := 0; m < 3; m++ {
			for w.cur.Seek(m*DefaultMorselRows, (m+1)*DefaultMorselRows, keep); w.cur.Next(&w.leaf); {
			}
		}
	}); allocs != 0 {
		t.Fatalf("reading three morsels allocates %.0f times", allocs)
	}
}
