package exec

import (
	"math"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// TestGroupKeyLengthPrefixedStrings is the regression test for the NUL
// collision: under the old 0x00-terminated encoding the two-column keys
// ("a\x00\x03b","c") and ("a","b\x00\x03c") serialize to identical bytes, so
// the aggregation (and the join hash table, which shares groupKey) merged distinct
// keys into one group. Length-prefixed encoding keeps them apart.
func TestGroupKeyLengthPrefixedStrings(t *testing.T) {
	b := storage.NewBuilder("nul", storage.Schema{
		{Name: "nul.a", Typ: storage.String},
		{Name: "nul.b", Typ: storage.String},
	})
	b.Str(0, "a\x00\x03b")
	b.Str(1, "c")
	b.Str(0, "a")
	b.Str(1, "b\x00\x03c")
	tbl := b.Build(1)

	batch := tbl.Scan(0, 16)[0]
	k0 := string(storage.GroupKey(nil, batch.Vecs, []int{0, 1}, 0))
	k1 := string(storage.GroupKey(nil, batch.Vecs, []int{0, 1}, 1))
	if k0 == k1 {
		t.Fatalf("NUL-embedded keys collide: %q", k0)
	}

	// End to end: the two rows must form two groups, not one.
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
}

// probeOp assembles one spine join by hand — the build side drained and
// hashed by runBuild, the probe side streamed through the same morselProbeOp
// (and so the same joinProber) every morsel runs — so a test can look at the
// joined batches themselves, which a compiled plan only shows a sink.
func probeOp(t *testing.T, probe, build Operator, probeKeys, buildKeys []string, ctx *Context) Operator {
	t.Helper()
	spec, err := resolveJoinSpec(probe.Schema(), build.Schema(), probeKeys, buildKeys, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := runBuild(nil, build, spec, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return &morselProbeOp{child: probe, st: &pipelineJoinState{spec: spec, table: table}, ctx: ctx}
}

// TestHashJoinChunksHighFanoutOutput: a skewed build key with thousands of
// duplicates must not inflate one output batch; the prober emits fixed-size
// chunks and carries its probe position across Next calls.
func TestHashJoinChunksHighFanoutOutput(t *testing.T) {
	build := storage.NewBuilder("dup", storage.Schema{
		{Name: "dup.k", Typ: storage.Int64},
		{Name: "dup.v", Typ: storage.Int64},
	})
	for i := 0; i < 3000; i++ {
		build.Int(0, 7)
		build.Int(1, int64(i))
	}
	probe := storage.NewBuilder("p", storage.Schema{
		{Name: "p.k", Typ: storage.Int64},
	})
	for i := 0; i < 5; i++ {
		probe.Int(0, 7)
	}
	ctx := NewContext(0.95)
	j := probeOp(t, NewTableScan(probe.Build(1), ctx), NewTableScan(build.Build(1), ctx),
		[]string{"p.k"}, []string{"dup.k"}, ctx)
	out, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range out {
		if b.Len() > joinBatchRows {
			t.Fatalf("output batch of %d rows exceeds cap %d", b.Len(), joinBatchRows)
		}
		total += b.Len()
	}
	if total != 5*3000 {
		t.Fatalf("join rows = %d, want 15000", total)
	}
	if len(out) < 15000/joinBatchRows {
		t.Fatalf("high-fanout join emitted %d batches; chunking not in effect", len(out))
	}
	// Build-side values must cycle in ascending order for every probe row
	// (output columns: p.k, dup.k, dup.v).
	if v := out[0].Vecs[2].I64[0]; v != 0 {
		t.Fatalf("first match value = %d, want 0 (ascending match order)", v)
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
	if out := runPlan(t, agg, ctx); len(out) != 0 {
		t.Fatalf("empty build produced %d batches", len(out))
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

// TestParallelJoinDeterministicAcrossWorkerCounts: with samplers on both the
// probe spine and the build side, results must stay byte-identical at any
// worker count (the PipelineOp determinism contract extended to joins).
func TestParallelJoinDeterministicAcrossWorkerCounts(t *testing.T) {
	fact := bigOrders(30000)
	node := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Filter{
				Child: &plan.SynopsisOp{Child: &plan.Scan{Table: fact}, Kind: plan.UniformSample, P: 0.25},
				Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "orders.id"}, R: expr.Int(25000)},
			},
			Right:    &plan.SynopsisOp{Child: &plan.Scan{Table: customersTable()}, Kind: plan.UniformSample, P: 0.8},
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

// TestJoinBothSidesSampledWeights: joining two independently sampled inputs
// must multiply their HT weights — exactly 1/(pL·pR) for uniform samplers —
// and aggregates over the joined stream must bracket the exact answer within
// their confidence intervals.
func TestJoinBothSidesSampledWeights(t *testing.T) {
	fact := bigOrders(20000)
	join := &plan.Join{
		Left:     &plan.SynopsisOp{Child: &plan.Scan{Table: fact}, Kind: plan.UniformSample, P: 0.5},
		Right:    &plan.SynopsisOp{Child: &plan.Scan{Table: customersTable()}, Kind: plan.UniformSample, P: 0.8},
		LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
	}

	// The joined stream itself: every output weight is the exact product of
	// the two uniform inverse inclusion probabilities.
	ctx := NewContext(0.95)
	left, err := Compile(join.Left, 3, ctx)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Compile(join.Right, 3*31+7, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(probeOp(t, left, right, join.LeftKeys, join.RightKeys, ctx))
	if err != nil {
		t.Fatal(err)
	}
	wantW := 1 / (0.5 * 0.8)
	n := 0
	for _, b := range out {
		wv := b.Vecs[len(b.Vecs)-1]
		for _, w := range wv.F64 {
			if math.Abs(w-wantW) > 1e-12 {
				t.Fatalf("join weight = %v, want %v (product of side weights)", w, wantW)
			}
		}
		n += b.Len()
	}
	if n == 0 {
		t.Fatal("sampled join produced no rows")
	}

	// Aggregates over the both-sides-sampled join must
	// bracket the exact per-region sums within their intervals. The build
	// side uses a distinct sample stratified on the join key so no customer
	// vanishes: a uniformly sampled build can drop whole dimension rows,
	// whose inclusion variance the per-row HT intervals cannot observe.
	exact := map[string]float64{}
	for i := 0; i < 20000; i++ {
		region := "east"
		if (i%10)%2 == 1 {
			region = "west"
		}
		exact[region] += float64(i)
	}
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.SynopsisOp{Child: &plan.Scan{Table: fact}, Kind: plan.UniformSample, P: 0.5},
			Right: &plan.SynopsisOp{
				Child: &plan.Scan{Table: customersTable()},
				Kind:  plan.DistinctSample, P: 0.3, Delta: 1, StratCols: []string{"cust.id"},
			},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		GroupBy: []string{"cust.region"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
	}
	actx := NewContext(0.95)
	actx.Workers = 4
	aop, err := Compile(agg, 3, actx)
	if err != nil {
		t.Fatal(err)
	}
	aout, err := Run(aop)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(aout)
	if len(rows) != 2 {
		t.Fatalf("regions = %d", len(rows))
	}
	ivs := aop.(IntervalReporter).Intervals()
	for i, r := range rows {
		iv := ivs[i][0]
		if iv.HalfWidth <= 0 {
			t.Fatalf("sampled join aggregate must carry CI, got %+v", iv)
		}
		truth := exact[r[0].S]
		if dev := math.Abs(iv.Estimate - truth); dev > 4*iv.HalfWidth {
			t.Fatalf("region %v: estimate %v vs exact %v exceeds 4 half-widths (%v)",
				r[0].S, iv.Estimate, truth, iv.HalfWidth)
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
					Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "cust.id"}, R: expr.Int(-1)},
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
		ctx.MaterializeSamples[syn] = "orders_join_sample"
		fingerprint(t, agg, ctx, 11)
		if len(ctx.Stats.BuiltSamples) != 1 {
			t.Fatalf("built samples = %d", len(ctx.Stats.BuiltSamples))
		}
		return ctx.Stats.BuiltSamples[0].Sample
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
				Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "cust.id"}, R: expr.Int(-1)},
			},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	ctx := NewContext(0.95)
	ctx.Workers = 4
	ctx.MaterializeSamples[syn] = "byproduct"
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 1 || rows[0][0].F != 0 {
		t.Fatalf("empty-join aggregate = %v, want one zero row", rows)
	}
	if len(ctx.Stats.BuiltSamples) != 1 {
		t.Fatalf("materializing run over empty build produced %d samples, want 1",
			len(ctx.Stats.BuiltSamples))
	}
	s := ctx.Stats.BuiltSamples[0].Sample
	if s.SourceRows != 20000 || s.Rows.NumRows() == 0 {
		t.Fatalf("byproduct sample malformed: source=%d rows=%d", s.SourceRows, s.Rows.NumRows())
	}

	// Without the materialization request the same plan early-outs: no
	// samples, no probe scan.
	ctx2 := NewContext(0.95)
	ctx2.Workers = 4
	runPlan(t, agg, ctx2)
	if len(ctx2.Stats.BuiltSamples) != 0 {
		t.Fatal("non-materializing run must not build samples")
	}
	if ctx2.Stats.BaseBytes >= fact.Bytes() {
		t.Fatalf("non-materializing empty-join run scanned the probe side (BaseBytes=%d)", ctx2.Stats.BaseBytes)
	}
}

// TestEmptyBuildStillMaterializesBuildSideSampler: the materializing sampler
// can live inside a *deeper build subtree* (when the planner's fact table is
// not the spine leaf); an empty shallower build must not early-out past it.
func TestEmptyBuildStillMaterializesBuildSideSampler(t *testing.T) {
	fact := bigOrders(20000)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: fact},
		Kind:  plan.UniformSample, P: 0.2,
	}
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Join{
				Left: &plan.Scan{Table: customersTable()}, Right: syn, // sampler in the build subtree
				LeftKeys: []string{"cust.id"}, RightKeys: []string{"orders.cust"},
			},
			Right: &plan.Filter{ // empty shallower build
				Child: &plan.Scan{Table: regionsTable()},
				Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "reg.rank"}, R: expr.Int(0)},
			},
			LeftKeys: []string{"cust.region"}, RightKeys: []string{"reg.name"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	ctx := NewContext(0.95)
	ctx.Workers = 4
	ctx.MaterializeSamples[syn] = "buildside_byproduct"
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 1 || rows[0][0].F != 0 {
		t.Fatalf("empty-join aggregate = %v, want one zero row", rows)
	}
	if len(ctx.Stats.BuiltSamples) != 1 {
		t.Fatalf("build-side sampler materialized %d samples, want 1", len(ctx.Stats.BuiltSamples))
	}
	if s := ctx.Stats.BuiltSamples[0].Sample; s.SourceRows != 20000 || s.Rows.NumRows() == 0 {
		t.Fatalf("byproduct sample malformed: source=%d rows=%d", s.SourceRows, s.Rows.NumRows())
	}
}
