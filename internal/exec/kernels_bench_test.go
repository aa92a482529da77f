package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/workload"
)

// Per-stage microbenchmarks of the vectorized hot path, run by hand (`go test
// ./internal/exec -run NONE -bench 'BenchmarkFilter|BenchmarkAgg'`):
// the filter stage (the compiled selection kernels, over unsorted columns)
// and aggTable.observe (the hoisted agg-major loop vs a row-major reference
// that re-derives the weight/aggregate dispatch per row, i.e. the
// pre-hoisting loop structure). Each benchmark reports ns/row so the stages
// compare on one scale; the *_rowmajor numbers are the regression baseline the
// hoisted loops must stay well under.

const benchRows = 4096

// benchAggBatch: f (float payload), i (int payload), g (8-way int group),
// plus the sampler weight column for the weighted variants.
func benchAggBatch(weighted bool) *storage.Batch {
	schema := storage.Schema{
		{Name: "t.f", Typ: storage.Float64},
		{Name: "t.i", Typ: storage.Int64},
		{Name: "t.g", Typ: storage.Int64},
	}
	if weighted {
		schema = append(schema, storage.Col{Name: synopses.WeightCol, Typ: storage.Float64})
	}
	b := storage.NewBatch(schema, benchRows)
	for r := 0; r < benchRows; r++ {
		b.Vecs[0].F64 = append(b.Vecs[0].F64, float64(r%100)+0.5)
		b.Vecs[1].I64 = append(b.Vecs[1].I64, int64(r%1000))
		b.Vecs[2].I64 = append(b.Vecs[2].I64, int64(r%8))
		if weighted {
			b.Vecs[3].F64 = append(b.Vecs[3].F64, 1.0+float64(r%3))
		}
	}
	return b
}

func reportPerRow(b *testing.B, rowsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(rowsPerOp)), "ns/row")
}

// filterBenchRows is long enough that no branch predictor learns the column:
// the filter benchmark walks it benchRows rows at a time, as a scan would.
const filterBenchRows = 600_000

// filterBenchModes are seven ship modes, as l_shipmode has.
var filterBenchModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}

// filterBenchBatches draws seeded uniform columns — i over [0, 1000), f over
// [0, 1), s over filterBenchModes — and cuts them into benchRows-row batches:
// coded as a table scan delivers them, and uncoded, the same batches with s
// stripped of its codes.
func filterBenchBatches() (coded, uncoded []*storage.Batch) {
	tb := storage.NewBuilder("t", storage.Schema{
		{Name: "t.i", Typ: storage.Int64},
		{Name: "t.f", Typ: storage.Float64},
		{Name: "t.s", Typ: storage.String},
	})
	x := uint64(1)
	for r := 0; r < filterBenchRows; r++ {
		x = x*6364136223846793005 + 1442695040888963407
		tb.Int(0, int64((x>>33)%1000))
		tb.Float(1, float64(x>>11)/(1<<53))
		tb.Str(2, filterBenchModes[(x>>40)%7])
	}
	coded = tb.Build(1).Scan(0, benchRows)
	for _, sb := range coded {
		u := *sb
		u.Vecs = []*storage.Vector{sb.Vecs[0], sb.Vecs[1], {Typ: storage.String, Str: sb.Vecs[2].Str}}
		uncoded = append(uncoded, &u)
	}
	return coded, uncoded
}

// BenchmarkFilterKernel measures the compiled selection kernels — refine a
// batch into a selection vector, no row gather — in ns per candidate row.
// The numeric cases sweep selectivity, where a kernel that branches per row
// pays for every misprediction; "sel" runs under the selection f < 0.5
// leaves; the string cases run coded and, for contrast, uncoded; "and"
// fuses two terms, the second refining the first one's survivors;
// "between" is a lower and an upper bound on t.i, which run as one range
// leaf; "i64_in_3" is an int column IN three int literals, as q16's
// p_size IN (…), and "mixed" the same list with one float literal.
func BenchmarkFilterKernel(b *testing.B) {
	i64 := func(op expr.CmpOp, c int64) expr.Pred {
		return expr.Pred{expr.Compare("t.i", op, storage.IntValue(c))}
	}
	shipIn := expr.Pred{expr.In("t.s",
		storage.StringValue("AIR"), storage.StringValue("MAIL"), storage.StringValue("SHIP"),
	)}
	shipEq := expr.Pred{expr.Compare("t.s", expr.EQ, storage.StringValue("RAIL"))}
	half := expr.Pred{expr.Compare("t.f", expr.LT, storage.FloatValue(0.5))}
	sizeIn := expr.Pred{expr.In("t.i", storage.IntValue(7), storage.IntValue(316), storage.IntValue(642))}
	mixedIn := expr.Pred{expr.In("t.i", storage.IntValue(7), storage.FloatValue(316), storage.IntValue(642))}
	cases := []struct {
		name    string
		pred    expr.Pred
		sel     expr.Pred // nil: dense; else the candidates are the rows it selects
		uncoded bool
	}{
		{"i64_ge_10pct", i64(expr.GE, 900), nil, false},
		{"i64_ge_50pct", i64(expr.GE, 500), nil, false},
		{"i64_ge_96pct", i64(expr.GE, 40), nil, false},
		{"f64_lt_50pct", half, nil, false},
		{"i64_ge_50pct_sel", i64(expr.GE, 500), half, false},
		{"str_eq_coded", shipEq, nil, false},
		{"str_in_coded", shipIn, nil, false},
		{"str_eq_uncoded", shipEq, nil, true},
		{"str_in_uncoded", shipIn, nil, true},
		{"and_i64_f64_25pct", append(i64(expr.GE, 500), half...), nil, false},
		{"i64_between_10pct", append(i64(expr.GE, 450), i64(expr.LE, 549)...), nil, false},
		{"i64_between_50pct_sel", append(i64(expr.GE, 250), i64(expr.LE, 749)...), half, false},
		{"i64_in_3", sizeIn, nil, false},
		{"i64_in_3_sel", sizeIn, half, false},
		{"i64_in_mixed_3_sel", mixedIn, half, false},
	}
	coded, uncoded := filterBenchBatches()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			batches := coded
			if c.uncoded {
				batches = uncoded
			}
			prog, err := expr.CompileFilter(c.pred, batches[0].Schema)
			if err != nil {
				b.Fatal(err)
			}
			var sc expr.Scratch
			sels := make([][]int32, len(batches))
			if c.sel != nil {
				sp, err := expr.CompileFilter(c.sel, batches[0].Schema)
				if err != nil {
					b.Fatal(err)
				}
				for k, sb := range batches {
					sels[k] = sp.Refine(sb, nil, nil, &sc)
				}
			}
			out := make([]int32, 0, benchRows)
			rows, kept := 0, 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k := n % len(batches)
				out = prog.Refine(batches[k], sels[k], out[:0], &sc)
				rows += len(sels[k])
				if sels[k] == nil {
					rows += batches[k].Len()
				}
				kept += len(out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			if kept == 0 {
				b.Fatal("predicate selected nothing")
			}
		})
	}
}

// rowMajorAgg is the row-at-a-time reference for an aggregate partial: the
// same group numbering (groupTable, so its group ids are the partial's slab
// ids) over one stats.GroupAccumulator per (group, aggregate), each folding
// every live row with Observe — w ≡ 1 on exact input, y ≡ 1 for COUNT — and
// merging with Merge. observe re-derives the group, the weight column's
// presence and each aggregate's column binding inside the row loop: the
// pre-hoisting loop structure, the regression baseline for aggTable.observe.
type rowMajorAgg struct {
	spec   *aggSpec
	groups groupTable
	accs   []*stats.GroupAccumulator // group id's aggregate k at id*len(spec.aggs)+k
}

func newRowMajorAgg(spec *aggSpec) *rowMajorAgg {
	return &rowMajorAgg{spec: spec, groups: newGroupTable(&spec.keys)}
}

func (t *rowMajorAgg) reset() {
	t.groups.reset()
	t.accs = t.accs[:0]
}

// open gives the groups opened since the last call their empty accumulators.
func (t *rowMajorAgg) open() {
	for len(t.accs) < t.groups.len()*len(t.spec.aggs) {
		t.accs = append(t.accs, stats.NewGroupAccumulator(t.spec.aggs[len(t.accs)%len(t.spec.aggs)].Kind))
	}
}

func (t *rowMajorAgg) observe(b *storage.Batch) {
	row := *b
	row.Sel = make([]int32, 1)
	na := len(t.spec.aggs)
	var sc storage.ResolveScratch
	for j := 0; j < b.Rows(); j++ {
		i := j
		if b.Sel != nil {
			i = int(b.Sel[j])
		}
		row.Sel[0] = int32(i)
		g := int(t.groups.resolve(&row, &sc)[0])
		t.open()
		w := 1.0
		if t.spec.weightAt >= 0 {
			w = b.Vecs[t.spec.weightAt].F64[i]
		}
		for k := range t.spec.aggs {
			y := 1.0
			if ci := t.spec.aggIdx[k]; ci >= 0 {
				y = b.Vecs[ci].Float(i)
			}
			t.accs[g*na+k].Observe(y, w)
		}
	}
}

// merge folds o in as aggTable.merge does: a group new to t takes o's
// accumulators as they are, in o's order.
func (t *rowMajorAgg) merge(o *rowMajorAgg) {
	na, had := len(t.spec.aggs), t.groups.len()
	for oid, id := range t.groups.merge(&o.groups) {
		for k := 0; k < na; k++ {
			src := o.accs[oid*na+k]
			if int(id) >= had {
				acc := *src
				t.accs = append(t.accs, &acc)
				continue
			}
			t.accs[int(id)*na+k].Merge(src)
		}
	}
}

func benchObserve(b *testing.B, groupBy []string, weighted, hoisted bool) {
	batch := benchAggBatch(weighted)
	aggs := []plan.AggSpec{
		{Kind: stats.Sum, Col: "t.f"},
		{Kind: stats.Count},
	}
	spec, err := resolveAggSpec(batch.Schema, groupBy, aggs, nil)
	if err != nil {
		b.Fatal(err)
	}
	table, reference := newAggTable(spec), newRowMajorAgg(spec)
	sc := foldScratch{groups: new(storage.ResolveScratch)}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if hoisted {
			table.observe(batch, nil, &sc)
		} else {
			reference.observe(batch)
		}
	}
	reportPerRow(b, benchRows)
}

func BenchmarkAggUngrouped(b *testing.B)         { benchObserve(b, nil, false, true) }
func BenchmarkAggUngroupedRowMajor(b *testing.B) { benchObserve(b, nil, false, false) }
func BenchmarkAggUngroupedWeighted(b *testing.B) { benchObserve(b, nil, true, true) }
func BenchmarkAggUngroupedWeightedRowMajor(b *testing.B) {
	benchObserve(b, nil, true, false)
}
func BenchmarkAggGrouped(b *testing.B)         { benchObserve(b, []string{"t.g"}, false, true) }
func BenchmarkAggGroupedRowMajor(b *testing.B) { benchObserve(b, []string{"t.g"}, false, false) }
func BenchmarkAggGroupedWeighted(b *testing.B) { benchObserve(b, []string{"t.g"}, true, true) }
func BenchmarkAggGroupedWeightedRowMajor(b *testing.B) {
	benchObserve(b, []string{"t.g"}, true, false)
}

// The three group-resolution shapes the serving profile names, each run the
// way the executor runs it at one worker: per 4 096-row morsel the worker's
// one partial, reset, observes four scan batches and merges into the run's
// table. ns/row covers all of it.
//
//   - one low-cardinality string column (TPC-H q3/q5/q12: o_orderpriority,
//     n_name, l_shipmode), as a table scan delivers it (dictionary-coded) and
//     as a vector built outside any table does (uncoded);
//   - two string columns (q1: l_returnflag, l_linestatus);
//   - one int64 column opening ~1 000 groups in every morsel (q15/q20).

const benchMorsels = 8

// benchGroupTable is benchMorsels morsels of: s1 (5 strings), s2 (3 strings),
// k (1 000 ints, every morsel sees nearly all of them), f (float payload).
func benchGroupTable() *storage.Table {
	tb := storage.NewBuilder("t", storage.Schema{
		{Name: "t.s1", Typ: storage.String},
		{Name: "t.s2", Typ: storage.String},
		{Name: "t.k", Typ: storage.Int64},
		{Name: "t.f", Typ: storage.Float64},
	})
	s1 := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	s2 := []string{"A", "N", "R"}
	x := uint64(1)
	for r := 0; r < benchMorsels*DefaultMorselRows; r++ {
		x = x*6364136223846793005 + 1442695040888963407
		tb.Str(0, s1[(x>>33)%5])
		tb.Str(1, s2[(x>>40)%3])
		tb.Int(2, int64((x>>20)%1000))
		tb.Float(3, float64(r%100)+0.5)
	}
	return tb.Build(1)
}

// uncodedCopy rebuilds a batch value by value, the way an operator that does
// not go through the Vector copy methods would: no vector keeps a dictionary.
func uncodedCopy(b *storage.Batch) *storage.Batch {
	out := storage.NewBatch(b.Schema, b.Len())
	for i := 0; i < b.Len(); i++ {
		for c, v := range b.Row(i) {
			out.Vecs[c].Append(v)
		}
	}
	return out
}

func benchMorselAgg(b *testing.B, groupBy []string, coded bool) {
	table := benchGroupTable()
	batches := table.Scan(0, storage.BatchSize)
	if !coded {
		for i, sb := range batches {
			batches[i] = uncodedCopy(sb)
		}
	}
	aggs := []plan.AggSpec{{Kind: stats.Sum, Col: "t.f"}, {Kind: stats.Count}}
	spec, err := resolveAggSpec(table.Schema(), groupBy, aggs, nil)
	if err != nil {
		b.Fatal(err)
	}
	perMorsel := DefaultMorselRows / storage.BatchSize
	sc := foldScratch{groups: new(storage.ResolveScratch)} // the worker's
	b.ReportAllocs()
	b.ResetTimer()
	// One worker's run, as the executor does it: each morsel folds into the
	// one partial, which is merged in order and then reset for the next.
	for n := 0; n < b.N; n++ {
		global := newAggTable(spec)
		part := newAggTable(spec)
		for m := 0; m < benchMorsels; m++ {
			if m > 0 {
				part.reset()
			}
			for _, sb := range batches[m*perMorsel : (m+1)*perMorsel] {
				part.observe(sb, nil, &sc)
			}
			global.merge(part)
		}
	}
	reportPerRow(b, table.NumRows())
}

func BenchmarkAggGroupedString(b *testing.B)        { benchMorselAgg(b, []string{"t.s1"}, true) }
func BenchmarkAggGroupedStringUncoded(b *testing.B) { benchMorselAgg(b, []string{"t.s1"}, false) }
func BenchmarkAggGroupedTwoStrings(b *testing.B) {
	benchMorselAgg(b, []string{"t.s2", "t.s1"}, true)
}
func BenchmarkAggGroupedManyInts(b *testing.B) { benchMorselAgg(b, []string{"t.k"}, true) }

// groupThroughTables is a star in TPC-H's shape for the join-aggregate
// benchmark: a fact table f of 200 000 rows referencing orders o (50 000,
// five priorities), parts p (10 000) and suppliers s (1 000), and s in turn
// one of 25 nations n.
func groupThroughTables() (f, o, p, s, n *storage.Table) {
	rng := rand.New(rand.NewSource(3))
	const facts, orders, parts, supps, nations = 200_000, 50_000, 10_000, 1_000, 25
	fb := storage.NewBuilder("f", storage.Schema{
		{Name: "f.orderkey", Typ: storage.Int64}, {Name: "f.partkey", Typ: storage.Int64},
		{Name: "f.suppkey", Typ: storage.Int64}, {Name: "f.price", Typ: storage.Float64},
		{Name: "f.shipdate", Typ: storage.Int64},
	})
	for i := 0; i < facts; i++ {
		fb.Int(0, int64(rng.Intn(orders)))
		fb.Int(1, int64(rng.Intn(parts)))
		fb.Int(2, int64(rng.Intn(supps)))
		fb.Float(3, 900+float64(rng.Intn(100_000))/100)
		fb.Int(4, int64(rng.Intn(2400)))
	}
	ob := storage.NewBuilder("o", storage.Schema{{Name: "o.orderkey", Typ: storage.Int64}, {Name: "o.priority", Typ: storage.String}})
	for i := 0; i < orders; i++ {
		ob.Int(0, int64(i))
		ob.Str(1, []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}[rng.Intn(5)])
	}
	pb := storage.NewBuilder("p", storage.Schema{{Name: "p.partkey", Typ: storage.Int64}, {Name: "p.size", Typ: storage.Int64}})
	for i := 0; i < parts; i++ {
		pb.Int(0, int64(i))
		pb.Int(1, int64(1+rng.Intn(50)))
	}
	sb := storage.NewBuilder("s", storage.Schema{{Name: "s.suppkey", Typ: storage.Int64}, {Name: "s.nationkey", Typ: storage.Int64}})
	for i := 0; i < supps; i++ {
		sb.Int(0, int64(i))
		sb.Int(1, int64(rng.Intn(nations)))
	}
	nb := storage.NewBuilder("n", storage.Schema{{Name: "n.nationkey", Typ: storage.Int64}, {Name: "n.name", Typ: storage.String}})
	for i := 0; i < nations; i++ {
		nb.Int(0, int64(i))
		nb.Str(1, fmt.Sprintf("NATION %02d", i))
	}
	return fb.Build(4), ob.Build(1), pb.Build(1), sb.Build(1), nb.Build(1)
}

// BenchmarkJoinAggGroupThrough runs the exact join-aggregate spine of two
// TPC-H shapes on one worker with every build cached, as serving runs it:
// q7, grouped by the last hop's nation name (f → s → n), and q8, grouped by
// the first hop's order priority, carried through the join to parts
// (f → o → p). It reports ns per fact row and B/op (`go test
// ./internal/exec -run NONE -bench BenchmarkJoinAggGroupThrough -benchmem`).
func BenchmarkJoinAggGroupThrough(b *testing.B) {
	f, o, p, s, n := groupThroughTables()
	join := func(l, r plan.Node, lk, rk string) plan.Node {
		return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk}}
	}
	sum := plan.AggSpec{Kind: stats.Sum, Col: "f.price"}
	shipped := &plan.Filter{Child: &plan.Scan{Table: f}, Pred: expr.Pred{expr.Compare("f.shipdate", expr.GE, storage.IntValue(1000))}}
	small := &plan.Filter{Child: &plan.Scan{Table: p}, Pred: expr.Pred{expr.Compare("p.size", expr.LE, storage.IntValue(25))}}
	for _, c := range []struct {
		name string
		root plan.Node
	}{
		{"q7", &plan.Aggregate{Child: join(join(shipped, &plan.Scan{Table: s}, "f.suppkey", "s.suppkey"), &plan.Scan{Table: n}, "s.nationkey", "n.nationkey"),
			GroupBy: []string{"n.name"}, Aggs: []plan.AggSpec{sum}}},
		{"q8", &plan.Aggregate{Child: join(join(&plan.Scan{Table: f}, &plan.Scan{Table: o}, "f.orderkey", "o.orderkey"), small, "f.partkey", "p.partkey"),
			GroupBy: []string{"o.priority"}, Aggs: []plan.AggSpec{{Kind: stats.Avg, Col: "f.price"}}}},
	} {
		b.Run(c.name, func(b *testing.B) { benchServed(b, c.root, f.NumRows()) })
	}
}

// BenchmarkAggLeafGrouped runs four exact aggregates grouped by fact
// columns on one worker with every build cached, as serving runs them: q1,
// most of a lineitem-shaped table grouped by its two coded flag columns,
// with three SUM and AVG aggregates and a COUNT (q1Aggregate); q15,
// a range of ship dates grouped by the 1 000 suppliers; q20, the facts
// whose part passes a filter, grouped by supplier through the part join; and
// orderkey, a range of ship dates that keeps 1 % of the facts grouped by
// their order, a column with four facts a key (TPC-H's l_orderkey), where
// the numbering has 25 times as many groups as the query meets. It reports
// ns per fact row and B/op (`go test ./internal/exec -run NONE -bench
// BenchmarkAggLeafGrouped -benchmem -cpu 1`).
func BenchmarkAggLeafGrouped(b *testing.B) {
	f, _, p, _, _ := groupThroughTables()
	sum := []plan.AggSpec{{Kind: stats.Sum, Col: "f.price"}}
	for _, c := range []struct {
		name string
		root plan.Node
	}{
		{"q1", q1Aggregate(f.NumRows())},
		{"q15", &plan.Aggregate{
			Child: &plan.Filter{Child: &plan.Scan{Table: f}, Pred: expr.Pred{
				expr.Compare("f.shipdate", expr.GE, storage.IntValue(1000)), expr.Compare("f.shipdate", expr.LE, storage.IntValue(1090)),
			}},
			GroupBy: []string{"f.suppkey"}, Aggs: sum}},
		{"q20", &plan.Aggregate{
			Child: &plan.Join{Left: &plan.Scan{Table: f},
				Right:    &plan.Filter{Child: &plan.Scan{Table: p}, Pred: expr.Pred{expr.Compare("p.size", expr.LE, storage.IntValue(10))}},
				LeftKeys: []string{"f.partkey"}, RightKeys: []string{"p.partkey"}},
			GroupBy: []string{"f.suppkey"}, Aggs: sum}},
		{"orderkey", &plan.Aggregate{
			Child: &plan.Filter{Child: &plan.Scan{Table: f}, Pred: expr.Pred{
				expr.Compare("f.shipdate", expr.GE, storage.IntValue(1000)), expr.Compare("f.shipdate", expr.LT, storage.IntValue(1024)),
			}},
			GroupBy: []string{"f.orderkey"}, Aggs: sum}},
	} {
		b.Run(c.name, func(b *testing.B) { benchServed(b, c.root, f.NumRows()) })
	}
}

// benchServed runs root's exact plan on one worker with every build cached,
// as serving runs it: one run off the clock builds the joins and the
// tables' indexes and numberings, then each iteration compiles and runs it.
// It reports ns per fact row (rows a run) and B/op.
func benchServed(b *testing.B, root plan.Node, rows int) {
	joins, pool := NewJoinCache(1<<30), storage.NewVecPool()
	run := func() {
		ctx := NewContext(0.95)
		ctx.Workers, ctx.Joins, ctx.Pool = 1, joins, pool
		op, err := Compile(root, 1, ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(op); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	reportPerRow(b, rows)
}

// q1Aggregate is TPC-H q1's shape over rows rows of a lineitem-like table:
// the rows shipped by day 2 350 of 2 400, grouped by a return flag of three
// values and a line status of two — both coded strings — with SUM(quantity),
// SUM(price), AVG(discount) and COUNT(*).
func q1Aggregate(rows int) *plan.Aggregate {
	rng := rand.New(rand.NewSource(5))
	lb := storage.NewBuilder("l", storage.Schema{
		{Name: "l.quantity", Typ: storage.Float64}, {Name: "l.price", Typ: storage.Float64},
		{Name: "l.discount", Typ: storage.Float64}, {Name: "l.returnflag", Typ: storage.String},
		{Name: "l.linestatus", Typ: storage.String}, {Name: "l.shipdate", Typ: storage.Int64},
	})
	lb.Grow(rows)
	for i := 0; i < rows; i++ {
		lb.Float(0, float64(1+rng.Intn(50)))
		lb.Float(1, 900+float64(rng.Intn(100_000))/100)
		lb.Float(2, float64(rng.Intn(11))/100)
		lb.Str(3, []string{"A", "N", "R"}[rng.Intn(3)])
		lb.Str(4, []string{"F", "O"}[rng.Intn(2)])
		lb.Int(5, int64(rng.Intn(2400)))
	}
	return &plan.Aggregate{
		Child:   &plan.Filter{Child: &plan.Scan{Table: lb.Build(4)}, Pred: expr.Pred{expr.Compare("l.shipdate", expr.LE, storage.IntValue(2350))}},
		GroupBy: []string{"l.returnflag", "l.linestatus"},
		Aggs: []plan.AggSpec{{Kind: stats.Sum, Col: "l.quantity"}, {Kind: stats.Sum, Col: "l.price"},
			{Kind: stats.Avg, Col: "l.discount"}, {Kind: stats.Count}},
	}
}

// BenchmarkJoinChain runs two exact TPC-H join chains over a star of its
// shape on one worker with every build cached (benchServed), reporting ns
// per fact row:
//
//   - q8: every fact joins its order — an unfiltered dimension, so each fact
//     batch takes the lookup — and then its part, a filtered dimension
//     taken by pairs; grouped by the order's priority, carried through;
//   - q10: the returned facts (a selection) join their orders of a date
//     range by pairs, and the chunks that survive join their customer and
//     the customer's nation, two unfiltered dimensions taken by lookups;
//     grouped by the nation's name.
func BenchmarkJoinChain(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const facts, orders, parts, custs, nations = 200_000, 50_000, 10_000, 5_000, 25
	fb := storage.NewBuilder("f", storage.Schema{
		{Name: "f.orderkey", Typ: storage.Int64}, {Name: "f.partkey", Typ: storage.Int64},
		{Name: "f.price", Typ: storage.Float64}, {Name: "f.returnflag", Typ: storage.String},
	})
	fb.Grow(facts)
	for i := 0; i < facts; i++ {
		fb.Int(0, int64(rng.Intn(orders)))
		fb.Int(1, int64(rng.Intn(parts)))
		fb.Float(2, 900+float64(rng.Intn(100_000))/100)
		fb.Str(3, []string{"A", "N", "R"}[rng.Intn(3)])
	}
	ob := storage.NewBuilder("o", storage.Schema{
		{Name: "o.orderkey", Typ: storage.Int64}, {Name: "o.custkey", Typ: storage.Int64},
		{Name: "o.orderdate", Typ: storage.Int64}, {Name: "o.priority", Typ: storage.String},
	})
	for i := 0; i < orders; i++ {
		ob.Int(0, int64(i))
		ob.Int(1, int64(rng.Intn(custs)))
		ob.Int(2, int64(rng.Intn(2400)))
		ob.Str(3, []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}[rng.Intn(5)])
	}
	pb := storage.NewBuilder("p", storage.Schema{{Name: "p.partkey", Typ: storage.Int64}, {Name: "p.type", Typ: storage.Int64}})
	for i := 0; i < parts; i++ {
		pb.Int(0, int64(i))
		pb.Int(1, int64(rng.Intn(150)))
	}
	cb := storage.NewBuilder("c", storage.Schema{{Name: "c.custkey", Typ: storage.Int64}, {Name: "c.nationkey", Typ: storage.Int64}})
	for i := 0; i < custs; i++ {
		cb.Int(0, int64(i))
		cb.Int(1, int64(rng.Intn(nations)))
	}
	nb := storage.NewBuilder("n", storage.Schema{{Name: "n.nationkey", Typ: storage.Int64}, {Name: "n.name", Typ: storage.String}})
	for i := 0; i < nations; i++ {
		nb.Int(0, int64(i))
		nb.Str(1, fmt.Sprintf("NATION %02d", i))
	}
	f, o, p, c, n := fb.Build(4), ob.Build(1), pb.Build(1), cb.Build(1), nb.Build(1)
	join := func(l, r plan.Node, lk, rk string) plan.Node {
		return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk}}
	}
	oneType := &plan.Filter{Child: &plan.Scan{Table: p}, Pred: expr.Pred{expr.Compare("p.type", expr.EQ, storage.IntValue(7))}}
	returned := &plan.Filter{Child: &plan.Scan{Table: f}, Pred: expr.Pred{expr.Compare("f.returnflag", expr.EQ, storage.StringValue("R"))}}
	recent := &plan.Filter{Child: &plan.Scan{Table: o}, Pred: expr.Pred{expr.Compare("o.orderdate", expr.GE, storage.IntValue(1200))}}
	for _, q := range []struct {
		name string
		root plan.Node
	}{
		{"q8", &plan.Aggregate{Child: join(join(&plan.Scan{Table: f}, &plan.Scan{Table: o}, "f.orderkey", "o.orderkey"), oneType, "f.partkey", "p.partkey"),
			GroupBy: []string{"o.priority"}, Aggs: []plan.AggSpec{{Kind: stats.Avg, Col: "f.price"}}}},
		{"q10", &plan.Aggregate{Child: join(join(join(returned, recent, "f.orderkey", "o.orderkey"), &plan.Scan{Table: c}, "o.custkey", "c.custkey"),
			&plan.Scan{Table: n}, "c.nationkey", "n.nationkey"),
			GroupBy: []string{"n.name"}, Aggs: []plan.AggSpec{{Kind: stats.Sum, Col: "f.price"}}}},
	} {
		b.Run(q.name, func(b *testing.B) { benchServed(b, q.root, f.NumRows()) })
	}
}

// BenchmarkSketchJoinGrouped runs two TPC-H sketch-join shapes over a stored
// payload — the facts' (count, sum of price) per key — on one worker with
// every build and numbering cached, as serving a reused sketch runs them:
// q7, suppliers joined to their nation and grouped by its name (the probe
// join's build side numbers the groups), and q14, parts grouped by size (the
// probe leaf numbers them). It reports ns per probe row and B/op (`go test
// ./internal/exec -run NONE -bench BenchmarkSketchJoinGrouped -benchmem -cpu
// 1`).
func BenchmarkSketchJoinGrouped(b *testing.B) {
	f, _, p, s, n := groupThroughTables()
	sum := []plan.AggSpec{{Kind: stats.Sum, Col: "f.price"}, {Kind: stats.Count}}
	for _, c := range []struct {
		name  string
		probe *storage.Table
		root  *plan.SketchJoin
	}{
		{"q7", s, &plan.SketchJoin{
			Probe:     &plan.Join{Left: &plan.Scan{Table: s}, Right: &plan.Scan{Table: n}, LeftKeys: []string{"s.nationkey"}, RightKeys: []string{"n.nationkey"}},
			ProbeKeys: []string{"s.suppkey"}, Build: &plan.Scan{Table: f}, BuildKeys: []string{"f.suppkey"}, AggCol: "f.price",
			GroupBy: []string{"n.name"}, Aggs: sum}},
		{"q14", p, &plan.SketchJoin{
			Probe:     &plan.Scan{Table: p},
			ProbeKeys: []string{"p.partkey"}, Build: &plan.Scan{Table: f}, BuildKeys: []string{"f.partkey"}, AggCol: "f.price",
			GroupBy: []string{"p.size"}, Aggs: sum}},
	} {
		b.Run(c.name, func(b *testing.B) {
			joins, pool := NewJoinCache(1<<30), storage.NewVecPool()
			run := func(root plan.Node) *Context {
				ctx := NewContext(0.95)
				ctx.Workers, ctx.Joins, ctx.Pool = 1, joins, pool
				ctx.Materialize[root] = 1 // an inline build keeps its payload
				op, err := Compile(root, 1, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(op); err != nil {
					b.Fatal(err)
				}
				return ctx
			}
			// Build the payload, the probe's join, index and numbering.
			stored := *c.root
			stored.Build, stored.Sketch = nil, run(c.root).Stats.Built[0].Synopsis.(*synopses.SketchJoin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(&stored)
			}
			reportPerRow(b, c.probe.NumRows())
		})
	}
}

// BenchmarkSketchJoinBuild times a sketch-join's inline payload build as a
// query's sink prepares it — the build side σ(lineitem) drained serially,
// every row counted at its key and l_extendedprice summed per key — over
// TPCH(0.1)'s lineitem keyed by l_partkey and l_orderkey (dense surrogate
// keys: counted at key − min), by l_orderkey under template q10's filter
// l_returnflag = 'R' (the build on explore_cold's tail: a quarter of the
// rows, every batch under a selection vector) and by a sparse key,
// l_orderkey times a large odd stride, counted at its rows' ids in the
// table's numbering: built by the first iteration and reused by the rest
// (sparse), or built by every iteration over a fresh table version made off
// the clock (sparse_cold). It reports ns per scanned row and B/op (`go test
// ./internal/exec -run NONE -bench BenchmarkSketchJoinBuild -benchmem -cpu
// 1`).
//
// The agg/ sub-benchmarks run the l_partkey, l_orderkey and q10 builds again
// as the exact aggregate that answers the same per-key (count, sum) —
// GROUP BY the key, COUNT(*) and SUM(l_extendedprice) — through Compile and
// Run on one worker. Each pair prices building the payload on the aggregate
// sink's fold and morsel merges instead of the payload's own fold: the
// aggregate costs several times as much a row.
func BenchmarkSketchJoinBuild(b *testing.B) {
	li, err := workload.TPCH(0.1, 1).Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	orderKey := li.Column(li.Schema().Index("lineitem.l_orderkey")).I64
	sparse := &storage.Vector{Typ: storage.Int64, I64: make([]int64, len(orderKey))}
	for i, k := range orderKey {
		sparse.I64[i] = k * 0x9E3779B97F4A7C1
	}
	price := li.Column(li.Schema().Index("lineitem.l_extendedprice"))
	spTable := func() *storage.Table {
		sp, err := storage.NewTable("sp", storage.Schema{{Name: "sp.key", Typ: storage.Int64}, {Name: "sp.price", Typ: storage.Float64}}, []*storage.Vector{sparse, price}, li.Partitions())
		if err != nil {
			b.Fatal(err)
		}
		return sp
	}
	returned := &plan.Filter{Child: &plan.Scan{Table: li}, Pred: expr.Pred{expr.Compare("lineitem.l_returnflag", expr.EQ, storage.StringValue("R"))}}
	cases := []struct {
		name       string
		build      plan.Node
		key, price string
		cold       bool // a fresh build table version every iteration
	}{
		{"l_partkey", &plan.Scan{Table: li}, "lineitem.l_partkey", "lineitem.l_extendedprice", false},
		{"l_orderkey", &plan.Scan{Table: li}, "lineitem.l_orderkey", "lineitem.l_extendedprice", false},
		{"q10", returned, "lineitem.l_orderkey", "lineitem.l_extendedprice", false},
		{"sparse", &plan.Scan{Table: spTable()}, "sp.key", "sp.price", false},
		{"sparse_cold", &plan.Scan{Table: spTable()}, "sp.key", "sp.price", true},
	}
	for _, c := range cases {
		node := &plan.SketchJoin{
			Build: c.build, BuildKeys: []string{c.key}, ProbeKeys: []string{"p.k"},
			AggCol: c.price, Aggs: []plan.AggSpec{{Kind: stats.Sum, Col: c.price}},
		}
		probe := storage.Schema{{Name: "p.k", Typ: storage.Int64}}
		b.Run(c.name, func(b *testing.B) {
			pool := storage.NewVecPool()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.cold {
					b.StopTimer()
					node.Build = &plan.Scan{Table: spTable()}
					b.StartTimer()
				}
				ctx := NewContext(0.95)
				ctx.Pool = pool
				s, err := newSketchSink(node, probe, nil, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.prepare(ctx); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, buildSource(c.build).NumRows())
		})
	}
	for _, c := range cases[:3] {
		agg := &plan.Aggregate{
			Child: c.build, GroupBy: []string{c.key},
			Aggs: []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: c.price}},
		}
		b.Run("agg/"+c.name, func(b *testing.B) {
			pool := storage.NewVecPool()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := NewContext(0.95)
				ctx.Pool, ctx.Workers = pool, 1
				op, err := Compile(agg, 1, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(op); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, buildSource(c.build).NumRows())
		})
	}
}

// BenchmarkKeyedRangeSweep is the sweep that sets keyedRatio: one leaf read
// of a 600 000-row table whose Int64 column repeats 2 400 values at random
// (l_shipdate's shape at sf 0.1), filtered by a range holding a share of its
// rows from 0.5 % to 50 %, read both ways a Filter over a leaf can read it —
// the range kernel over every batch (scan), or the rows of the column's key
// index marked in a row bitmap and each batch's candidates taken from it
// (index; the index itself is built once per version, before the timer).
// ns/row is per table row: `go test ./internal/exec -run NONE -bench
// BenchmarkKeyedRangeSweep -cpu 1`. The index read wins up to 30 % and
// loses at 50 %; keyedRatio says why R is 8, not the break-even.
func BenchmarkKeyedRangeSweep(b *testing.B) {
	const days = 2400
	rng := rand.New(rand.NewSource(47))
	tb := storage.NewBuilder("t", storage.Schema{{Name: "t.d", Typ: storage.Int64}})
	tb.Grow(filterBenchRows)
	for i := 0; i < filterBenchRows; i++ {
		tb.Int(0, int64(rng.Intn(days)))
	}
	tbl := tb.Build(10)
	x := tbl.KeyIndex([]int{0})
	for _, pct := range []float64{0.5, 1, 2, 5, 10, 12.5, 15, 20, 30, 50} {
		hi := int64(pct*days/100) - 1
		pred := expr.Pred{expr.Compare("t.d", expr.GE, storage.IntValue(0)), expr.Compare("t.d", expr.LE, storage.IntValue(hi))}
		prog, err := expr.CompileFilter(pred, tbl.Schema())
		if err != nil {
			b.Fatal(err)
		}
		pool := storage.NewVecPool()
		for _, mode := range []string{"scan", "index"} {
			b.Run(fmt.Sprintf("%s/%g%%", mode, pct), func(b *testing.B) {
				ctx := NewContext(0.95)
				cur := tbl.NewCursor(storage.BatchSize, nil, nil, nil)
				out := storage.Batch{Sel: make([]int32, 0, storage.BatchSize)}
				var leaf storage.Batch
				var sc expr.Scratch
				for i := 0; i < b.N; i++ {
					var rows storage.KeyMask
					if mode == "index" {
						in, _ := x.Range(0, hi)
						rows = pool.GetBits(tbl.NumRows())
						rows.MarkRows(in)
					}
					p := prog
					if rows != nil {
						p = nil
					}
					for cur.Seek(0, tbl.NumRows(), nil); cur.Next(&leaf); {
						if k := refine(&leaf, p, rows, &out, &sc, ctx); k != nil {
							benchJoinSink += k.Rows()
						}
					}
					pool.PutBits(rows)
				}
				reportPerRow(b, tbl.NumRows())
			})
		}
	}
}
