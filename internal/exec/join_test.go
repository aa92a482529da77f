package exec

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// TestGroupKeyLengthPrefixedStrings is the regression test for the NUL
// collision: under a 0x00-terminated byte encoding the two-column keys
// ("a\x00\x03b","c") and ("a","b\x00\x03c") serialize to identical bytes,
// so the aggregation and the join table merged distinct keys into one. Keys
// are now compared by value, column by column (storage.GroupIndex): the two
// rows must form two groups, and in a two-column join on those keys each row
// must match only itself.
func TestGroupKeyLengthPrefixedStrings(t *testing.T) {
	nul := func(name string) *storage.Table {
		b := storage.NewBuilder(name, storage.Schema{
			{Name: name + ".a", Typ: storage.String},
			{Name: name + ".b", Typ: storage.String},
		})
		b.Str(0, "a\x00\x03b")
		b.Str(1, "c")
		b.Str(0, "a")
		b.Str(1, "b\x00\x03c")
		return b.Build(1)
	}
	tbl := nul("nul")

	ctx := NewContext(0.95)
	agg := &plan.Aggregate{
		Child:   &plan.Scan{Table: tbl},
		GroupBy: []string{"nul.a", "nul.b"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2 (NUL-embedded strings merged)", len(rows))
	}

	join := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: tbl}, Right: &plan.Scan{Table: nul("dim")},
			LeftKeys: []string{"nul.a", "nul.b"}, RightKeys: []string{"dim.a", "dim.b"},
		},
		GroupBy: []string{"nul.a", "nul.b", "dim.a", "dim.b"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	rows = allRows(runPlan(t, join, NewContext(0.95)))
	if len(rows) != 2 {
		t.Fatalf("join pairs %d distinct (probe key, build key) pairs, want 2: %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].S != r[2].S || r[1].S != r[3].S || r[4].F != 1 {
			t.Fatalf("probe key (%q, %q) met build key (%q, %q) %v times, want only itself, once", r[0].S, r[1].S, r[2].S, r[3].S, r[4].F)
		}
	}
}

// spineChunks runs spine — the plan below a sink — on the morsel loop into a
// sink that keeps what reaches it: per morsel, in morsel order, every batch
// the spine's top stage hands the sink, copied out as its live rows' Int64
// columns (nil for any other column), narrowed to the columns reads names.
// Over a join, these are the chunks the top join emits, so a test can look
// at the joined batches themselves, which a compiled plan only shows a sink.
func spineChunks(spine plan.Node, reads []string, seed uint64, ctx *Context) ([][]chunk, error) {
	snk := &chunkSink{}
	op, err := newPipelineOp(spine, "a test", nil, reads, seed, ctx, func(storage.Schema, *groupSource) (sink, error) {
		return snk, nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := Run(op); err != nil {
		return nil, err
	}
	return snk.got, nil
}

// chunk is one batch a sink was handed: its live rows' values by column.
type chunk [][]int64

func (c chunk) rows() int { return len(c[0]) }

// chunkSink is spineChunks' sink; its partial keeps a list of chunks per
// morsel it folded, and merging appends the other partial's lists, so the
// merged partial holds every morsel's in morsel order.
type chunkSink struct{ got [][]chunk }

type chunkPartial struct {
	snk     *chunkSink
	morsels [][]chunk
}

func (s *chunkSink) outSchema() storage.Schema { return nil }
func (s *chunkSink) prepare(*Context) error    { return nil }
func (s *chunkSink) newPartial() partial       { return &chunkPartial{snk: s, morsels: make([][]chunk, 1)} }

func (p *chunkPartial) fold(b *storage.Batch, _ *Context, _ *foldScratch) {
	c := make(chunk, len(b.Vecs))
	for j := range b.Rows() {
		i := j
		if b.Sel != nil {
			i = int(b.Sel[j])
		}
		for k, v := range b.Vecs {
			if v.Typ == storage.Int64 {
				c[k] = append(c[k], v.I64[i])
			}
		}
	}
	p.morsels[len(p.morsels)-1] = append(p.morsels[len(p.morsels)-1], c)
}

func (p *chunkPartial) merge(o partial) { p.morsels = append(p.morsels, o.(*chunkPartial).morsels...) }
func (p *chunkPartial) reset()          { p.morsels = make([][]chunk, 1) }

func (p *chunkPartial) emit(float64) (*storage.Batch, [][]stats.Interval) {
	p.snk.got = p.morsels
	return storage.NewBatch(nil, 0), nil
}

// TestHashJoinChunksHighFanoutOutput: a skewed build key with thousands of
// duplicates must not inflate one output batch; the probe stage emits full
// chunks of joinBatchRows and resumes a probe batch mid-row when one fills,
// keeping the partly filled chunk for the morsel's end — also when the probe
// batch carries a selection.
func TestHashJoinChunksHighFanoutOutput(t *testing.T) {
	build := storage.NewBuilder("dup", storage.Schema{
		{Name: "dup.k", Typ: storage.Int64},
		{Name: "dup.v", Typ: storage.Int64},
	})
	for i := 0; i < 3000; i++ {
		build.Int(0, 7)
		build.Int(1, int64(i))
	}
	// Probe rows 0..9 carry key 7 but for every third, whose key 8 matches
	// nothing.
	probe := storage.NewBuilder("p", storage.Schema{
		{Name: "p.k", Typ: storage.Int64},
		{Name: "p.id", Typ: storage.Int64},
	})
	for i := 0; i < 10; i++ {
		k := int64(7)
		if i%3 == 2 {
			k = 8
		}
		probe.Int(0, k)
		probe.Int(1, int64(i))
	}
	probeTable, buildTable := probe.Build(1), build.Build(1)
	for _, c := range []struct {
		name  string
		probe plan.Node
		ids   []int64 // probe rows that reach the join, in order
	}{
		{"every row", &plan.Scan{Table: probeTable}, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"under a selection", &plan.Filter{
			Child: &plan.Scan{Table: probeTable},
			Pred:  expr.Pred{expr.Compare("p.id", expr.GE, storage.IntValue(3))},
		}, []int64{3, 4, 5, 6, 7, 8, 9}},
	} {
		join := &plan.Join{Left: c.probe, Right: &plan.Scan{Table: buildTable}, LeftKeys: []string{"p.k"}, RightKeys: []string{"dup.k"}}
		morsels, err := spineChunks(join, []string{"p.id", "dup.v"}, 1, NewContext(0.95))
		if err != nil {
			t.Fatal(err)
		}
		if len(morsels) != 1 {
			t.Fatalf("%s: %d morsels, want 1", c.name, len(morsels))
		}
		out := morsels[0]
		// Every pair in order (output columns: p.id, dup.v): each matching
		// probe row meets every build value, ascending.
		var want, got [][2]int64
		for _, id := range c.ids {
			for v := 0; v < 3000 && id%3 != 2; v++ {
				want = append(want, [2]int64{id, int64(v)})
			}
		}
		for n, b := range out {
			if b.rows() != joinBatchRows && n != len(out)-1 {
				t.Fatalf("%s: output batch %d of %d has %d rows, want a full chunk of %d", c.name, n, len(out), b.rows(), joinBatchRows)
			}
			for i := range b.rows() {
				got = append(got, [2]int64{b[0][i], b[1][i]})
			}
		}
		if !slices.Equal(got, want) {
			k := 0
			for k < min(len(got), len(want)) && got[k] == want[k] {
				k++
			}
			t.Fatalf("%s: %d joined (p.id, dup.v) pairs, want %d in probe-row then build-row order; the first %d agree", c.name, len(got), len(want), k)
		}
	}
}

// TestHashJoinEmptyBuildEarlyOut: an empty inner relation must cost O(1) —
// the probe side is never scanned, so no base bytes, shuffle bytes or CPU
// tuples are charged for a provably match-free scan.
func TestHashJoinEmptyBuildEarlyOut(t *testing.T) {
	empty := storage.NewBuilder("none", storage.Schema{
		{Name: "none.id", Typ: storage.Int64},
	}).Build(1)
	ctx := NewContext(0.95)
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: bigOrders(20000)}, Right: &plan.Scan{Table: empty},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"none.id"},
		},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	if out := runPlan(t, agg, ctx); out.Len() != 0 {
		t.Fatalf("empty build produced %d rows", out.Len())
	}
	if ctx.Stats.BaseBytes != 0 || ctx.Stats.ShuffleBytes != 0 || ctx.Stats.CPUTuples != 0 {
		t.Fatalf("empty-build join charged work: %+v", *ctx.Stats)
	}
}

// regionsTable joins against customersTable's region column.
func regionsTable() *storage.Table {
	b := storage.NewBuilder("reg", storage.Schema{
		{Name: "reg.name", Typ: storage.String},
		{Name: "reg.rank", Typ: storage.Int64},
	})
	b.Str(0, "east")
	b.Int(1, 1)
	b.Str(0, "west")
	b.Int(1, 2)
	return b.Build(1)
}

// TestParallelJoinDeterministicAcrossWorkerCounts: with a sampler on the
// probe spine, results must stay byte-identical at any worker count (the
// PipelineOp determinism contract extended to joins).
func TestParallelJoinDeterministicAcrossWorkerCounts(t *testing.T) {
	fact := bigOrders(30000)
	node := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Filter{
				Child: &plan.SynopsisOp{Child: &plan.Scan{Table: fact}, Kind: plan.UniformSample, P: 0.25},
				Pred:  expr.Pred{expr.Compare("orders.id", expr.LT, storage.IntValue(25000))},
			},
			Right:    &plan.Scan{Table: customersTable()},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		GroupBy: []string{"cust.region"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "orders.amount"}},
	}
	var base string
	for _, workers := range []int{1, 2, 4, 8} {
		ctx := NewContext(0.95)
		ctx.Workers = workers
		ctx.MorselRows = 1000
		fp := fingerprint(t, node, ctx, 42)
		if base == "" {
			base = fp
		} else if fp != base {
			t.Fatalf("workers=%d diverges from workers=1 on sampled join pipeline", workers)
		}
	}
}

// TestParallelJoinEmptyBuildEarlyOut: the pipeline must short-circuit an
// empty build side at any worker count — correct aggregate semantics, no
// probe scan charged.
func TestParallelJoinEmptyBuildEarlyOut(t *testing.T) {
	fact := bigOrders(20000)
	mk := func(groupBy []string) *plan.Aggregate {
		return &plan.Aggregate{
			Child: &plan.Join{
				Left: &plan.Scan{Table: fact},
				Right: &plan.Filter{
					Child: &plan.Scan{Table: customersTable()},
					Pred:  expr.Pred{expr.Compare("cust.id", expr.LT, storage.IntValue(-1))},
				},
				LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
			},
			GroupBy: groupBy,
			Aggs:    []plan.AggSpec{{Kind: stats.Count}},
		}
	}

	// Global aggregate: one zero row. Grouped: no rows.
	ctx := NewContext(0.95)
	ctx.Workers = 4
	rows := allRows(runPlan(t, mk(nil), ctx))
	if len(rows) != 1 || rows[0][0].F != 0 {
		t.Fatalf("global aggregate over empty join = %v, want one zero row", rows)
	}
	if ctx.Stats.BaseBytes >= fact.Bytes() {
		t.Fatalf("empty-build pipeline scanned the probe side (BaseBytes=%d)", ctx.Stats.BaseBytes)
	}
	if ctx.Stats.ShuffleBytes != 0 {
		t.Fatalf("empty-build pipeline charged phantom shuffle: %d", ctx.Stats.ShuffleBytes)
	}
	ctx2 := NewContext(0.95)
	ctx2.Workers = 4
	if rows := allRows(runPlan(t, mk([]string{"orders.cust"}), ctx2)); len(rows) != 0 {
		t.Fatalf("grouped aggregate over empty join = %d rows", len(rows))
	}
}

// TestParallelJoinSampleMaterialization: a sampler below the join still
// materializes its per-morsel parts into one deterministic sample when the
// pipeline runs with joins on the spine.
func TestParallelJoinSampleMaterialization(t *testing.T) {
	fact := bigOrders(30000)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: fact},
		Kind:  plan.DistinctSample, P: 0.05, Delta: 12, StratCols: []string{"orders.cust"},
	}
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: syn, Right: &plan.Scan{Table: customersTable()},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		GroupBy: []string{"cust.region"},
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
	s1, s8 := build(1), build(8)
	if s1.Rows.NumRows() != s8.Rows.NumRows() || s1.Rows.Bytes() != s8.Rows.Bytes() {
		t.Fatalf("materialized sample differs across worker counts: %d vs %d rows",
			s1.Rows.NumRows(), s8.Rows.NumRows())
	}
	if s1.SourceRows != 30000 {
		t.Fatalf("source rows = %d", s1.SourceRows)
	}
}

// TestEmptyBuildStillMaterializesSampler: when the tuner asked this pipeline
// to materialize its sampler, an empty build side must not skip the probe
// pass — the synopsis is a byproduct the warehouse is waiting for.
func TestEmptyBuildStillMaterializesSampler(t *testing.T) {
	fact := bigOrders(20000)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: fact},
		Kind:  plan.UniformSample, P: 0.2,
	}
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: syn,
			Right: &plan.Filter{
				Child: &plan.Scan{Table: customersTable()},
				Pred:  expr.Pred{expr.Compare("cust.id", expr.LT, storage.IntValue(-1))},
			},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	ctx := NewContext(0.95)
	ctx.Workers = 4
	ctx.Materialize[syn] = 1
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 1 || rows[0][0].F != 0 {
		t.Fatalf("empty-join aggregate = %v, want one zero row", rows)
	}
	if len(ctx.Stats.Built) != 1 {
		t.Fatalf("materializing run over empty build produced %d samples, want 1",
			len(ctx.Stats.Built))
	}
	s := ctx.Stats.Built[0].Synopsis.(*synopses.Sample)
	if s.SourceRows != 20000 || s.Rows.NumRows() == 0 {
		t.Fatalf("byproduct sample malformed: source=%d rows=%d", s.SourceRows, s.Rows.NumRows())
	}

	// Without the materialization request the same plan early-outs: no
	// samples, no probe scan.
	ctx2 := NewContext(0.95)
	ctx2.Workers = 4
	runPlan(t, agg, ctx2)
	if len(ctx2.Stats.Built) != 0 {
		t.Fatal("non-materializing run must not build samples")
	}
	if ctx2.Stats.BaseBytes >= fact.Bytes() {
		t.Fatalf("non-materializing empty-join run scanned the probe side (BaseBytes=%d)", ctx2.Stats.BaseBytes)
	}
}

// TestJoinBuildSurvivorShapes: a build side is a survivor mask over its
// table's own rows, read off the scan's batch starts. Over a 3 000-row
// dimension of three 1 000-row partitions (keys 0..2999 in row order) every
// shape a drain meets must answer exactly: no filter (no mask), a filter
// keeping whole leading partitions while zone pruning drops the tail (dense
// batches back to back, then nothing — a mask all the same), one keeping a
// suffix, a hole in the middle, and a scattered selection.
func TestJoinBuildSurvivorShapes(t *testing.T) {
	db := storage.NewBuilder("dim", storage.Schema{
		{Name: "dim.id", Typ: storage.Int64},
		{Name: "dim.g", Typ: storage.Int64},
		{Name: "dim.band", Typ: storage.Int64},
	})
	for i := 0; i < 3000; i++ {
		db.Int(0, int64(i))
		db.Int(1, int64(i%7))
		db.Int(2, int64(i/500))
	}
	dim := db.Build(3)
	fb := storage.NewBuilder("fact", storage.Schema{{Name: "fact.k", Typ: storage.Int64}})
	for i := 0; i < 9000; i++ {
		fb.Int(0, int64((i*7919)%3100)) // every key three times, and 100 keys no row has
	}
	fact := fb.Build(4)
	id := func(op expr.CmpOp, v int64) expr.Pred {
		return expr.Pred{expr.Compare("dim.id", op, storage.IntValue(v))}
	}
	bands := func(bs ...int64) expr.Pred {
		vals := make([]storage.Value, len(bs))
		for i, b := range bs {
			vals[i] = storage.IntValue(b)
		}
		return expr.Pred{expr.In("dim.band", vals...)}
	}
	for _, c := range []struct {
		name   string
		pred   expr.Pred // nil: no filter
		keep   func(i int) bool
		masked bool
	}{
		{"every row", nil, func(int) bool { return true }, false},
		{"leading partitions", id(expr.LT, 2000), func(i int) bool { return i < 2000 }, true},
		{"a suffix", id(expr.GE, 1500), func(i int) bool { return i >= 1500 }, true},
		{"a hole", bands(0, 1, 4, 5), func(i int) bool { return i < 1000 || i >= 2000 }, true},
		{"scattered", expr.Pred{expr.Compare("dim.g", expr.EQ, storage.IntValue(3))}, func(i int) bool { return i%7 == 3 }, true},
	} {
		var build plan.Node = &plan.Scan{Table: dim}
		if c.pred != nil {
			build = &plan.Filter{Child: build, Pred: c.pred}
		}
		root := &plan.Aggregate{
			Child: &plan.Join{
				Left: &plan.Scan{Table: fact}, Right: build,
				LeftKeys: []string{"fact.k"}, RightKeys: []string{"dim.id"},
			},
			GroupBy: []string{"dim.g"},
			Aggs:    []plan.AggSpec{{Kind: stats.Count}},
		}
		want := make(map[int64]int64)
		for i := 0; i < 9000; i++ {
			if k := (i * 7919) % 3100; k < 3000 && c.keep(k) {
				want[int64(k%7)]++
			}
		}
		ctx := NewContext(0.95)
		ctx.Workers = 2
		op, err := Compile(root, 42, ctx)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(op)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]int64)
		for _, row := range allRows(out) {
			got[row[0].I] = int64(row[1].F)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: counts per group %v, want %v", c.name, got, want)
		}
		table := op.joins[0].table
		if (table.mask != nil) != c.masked {
			t.Fatalf("%s: build side has mask %t, want %t", c.name, table.mask != nil, c.masked)
		}
	}
}
