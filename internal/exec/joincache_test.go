package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/workload"
)

// custBelow is a build side over the customers table keeping cust.id < v.
func custBelow(cust *storage.Table, v int64) plan.Node {
	return &plan.Filter{
		Child: &plan.Scan{Table: cust},
		Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "cust.id"}, R: expr.Int(v)},
	}
}

// regionCount aggregates fact ⋈ build by customer region.
func regionCount(fact plan.Node, build plan.Node) *plan.Aggregate {
	return &plan.Aggregate{
		Child: &plan.Join{
			Left: fact, Right: build,
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		GroupBy: []string{"cust.region"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "orders.amount"}},
	}
}

// cachedRun executes the plan on a fresh context sharing the given cache (nil
// for none) and returns the run's fingerprint with its cost counters folded
// in, plus the context for further inspection.
func cachedRun(t *testing.T, n plan.Node, jc *JoinCache, prep func(*Context)) (string, *Context) {
	t.Helper()
	ctx := NewContext(0.95)
	ctx.Workers = 2
	ctx.MorselRows = 2048
	ctx.Joins = jc
	if prep != nil {
		prep(ctx)
	}
	fp := fingerprint(t, n, ctx, 42)
	s := ctx.Stats
	return fmt.Sprintf("%s|base=%d wh=%d cpu=%d shuffle=%d out=%d", fp,
		s.BaseBytes, s.WarehouseBytes, s.CPUTuples, s.ShuffleBytes, s.OutputRows), ctx
}

// residentRows lists the row counts of the resident tables, most recent first.
func (c *JoinCache) residentRows() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*joinCacheEntry); e.table != nil {
			out = append(out, e.table.rows.Len())
		}
	}
	return out
}

// TestJoinCacheSecondSightAndReplay walks one build key through its three
// states under both sinks: first sight builds from the pool and leaves only
// the key behind, second sight builds a cache-owned table and admits it, and
// every later run is a hit that opens nothing — yet rows, intervals and all
// five cost counters equal a run with no cache every time.
func TestJoinCacheSecondSightAndReplay(t *testing.T) {
	fact, cust := bigOrders(20000), customersTable()
	spine := regionCount(&plan.Scan{Table: fact}, custBelow(cust, 7))
	sketch := &plan.SketchJoin{
		Probe: spine.Child, Build: &plan.Scan{Table: ordersTable()},
		ProbeKeys: []string{"orders.id"}, BuildKeys: []string{"orders.id"},
		GroupBy: []string{"cust.region"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	for name, root := range map[string]plan.Node{"aggregate": spine, "sketch-join": sketch} {
		want, _ := cachedRun(t, root, nil, nil)
		jc := NewJoinCache(1 << 20)
		jc.Obs = &obs.JoinCacheObs{}
		for run, wantResident := range []int{0, 1, 1, 1} {
			got, _ := cachedRun(t, root, jc, nil)
			if got != want {
				t.Fatalf("%s run %d diverges from the uncached run:\n%.300s\nvs\n%.300s", name, run, got, want)
			}
			if n := len(jc.residentRows()); n != wantResident {
				t.Fatalf("%s run %d: %d resident tables, want %d", name, run, n, wantResident)
			}
		}
		o := jc.Obs
		if o.Misses.Value() != 2 || o.Admissions.Value() != 1 || o.Hits.Value() != 2 || o.Evictions.Value() != 0 ||
			o.ResidentBytes.Value() <= 0 || o.ResidentBytes.Value() != jc.bytes {
			t.Fatalf("%s: misses/admissions/hits/evictions = %d/%d/%d/%d, resident %d bytes (cache holds %d); want 2/1/2/0 and resident bytes",
				name, o.Misses.Value(), o.Admissions.Value(), o.Hits.Value(), o.Evictions.Value(), o.ResidentBytes.Value(), jc.bytes)
		}
	}
}

// TestJoinCacheProjectsOnlyQueryOwnedBuilds runs one join three times on a
// context with a JoinCache: on first sight the build table is the query's
// own and keeps only the join's key and payload columns; on second sight it
// is admitted and keeps every column; the third run hits it. Rows and the
// three counters a build charges are the same every time.
func TestJoinCacheProjectsOnlyQueryOwnedBuilds(t *testing.T) {
	cat := workload.TPCH(0.002, 3).Catalog
	li, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	orders, err := cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	root := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: li},
			Right: &plan.Filter{
				Child: &plan.Scan{Table: orders},
				Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "orders.o_orderdate"}, R: expr.Int(1800)},
			},
			LeftKeys: []string{"lineitem.l_orderkey"}, RightKeys: []string{"orders.o_orderkey"},
		},
		GroupBy: []string{"orders.o_orderpriority"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "lineitem.l_extendedprice"}},
	}
	jc := NewJoinCache(1 << 30)
	all := orders.Schema().Names()
	var first string
	for run, want := range [][]string{{"orders.o_orderkey", "orders.o_orderpriority"}, all, all} {
		ctx := NewContext(0.95)
		ctx.Workers = 2
		ctx.Joins = jc
		op, err := Compile(root, 42, ctx)
		if err != nil {
			t.Fatal(err)
		}
		p := op.(*PipelineOp)
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		var out []*storage.Batch
		for {
			b, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			out = append(out, b)
		}
		table := p.joins[0].table
		var held []string
		for c, v := range table.rows.Vecs {
			if v != nil {
				held = append(held, orders.Schema()[c].Name)
			}
		}
		if !slices.Equal(held, want) || table.shared != (run > 0) {
			t.Fatalf("run %d: build table holds %v (shared %v), want %v (shared %v)", run, held, table.shared, want, run > 0)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		s := ctx.Stats
		got := fmt.Sprintf("%v|base=%d cpu=%d shuffle=%d", allRows(out), s.BaseBytes, s.CPUTuples, s.ShuffleBytes)
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d diverges from the first:\n%.300s\nvs\n%.300s", run, got, first)
		}
	}
}

// TestJoinCacheTraceMarksHits: a hit's build subtree was compiled and
// trace-wrapped but never opened; the trace must say so instead of showing a
// build that produced no rows, and its root must still carry the build's row
// count. (The join itself is part of the fused spine on a hit and a miss
// alike.)
func TestJoinCacheTraceMarksHits(t *testing.T) {
	root := regionCount(&plan.Scan{Table: ordersTable()}, custBelow(customersTable(), 7))
	jc := NewJoinCache(1 << 20)
	var traces []string
	for run := 0; run < 4; run++ {
		_, ctx := cachedRun(t, root, jc, func(ctx *Context) {
			ctx.TraceNodes = make(map[plan.Node]*obs.TraceNode)
		})
		traces = append(traces, BuildTraceTree(root, ctx.TraceNodes, nil).Render())
	}
	if traces[0] != traces[1] || strings.Contains(traces[0], "cached") {
		t.Fatalf("miss and first-sight traces must be the plain build trace:\n%s\nvs\n%s", traces[0], traces[1])
	}
	if traces[2] != traces[3] {
		t.Fatalf("hit traces differ across runs:\n%s\nvs\n%s", traces[2], traces[3])
	}
	for _, want := range []string{
		"Join(orders.cust = cust.id)  (fused)",
		"└─ Filter(cust.id < 7)  (cached rows=7)",
		"   └─ Scan(cust)  (cached)",
	} {
		if !strings.Contains(traces[2], want) {
			t.Fatalf("hit trace missing %q:\n%s", want, traces[2])
		}
	}
	if !strings.Contains(traces[0], "└─ Filter(cust.id < 7)  rows=7/10 sel=70.0% in=10 batches=1 time=0s") {
		t.Fatalf("a miss must render the build it ran:\n%s", traces[0])
	}
}

// TestJoinCacheNeverCachesSynopsisSubtrees: a build side holding a sampler
// would draw from the query seed, and one holding a synopsis scan would read
// warehouse state; neither is a function of plan text and table versions.
// Neither compiles — a build side is σ(base table) — so neither can leave as
// much as a key behind.
func TestJoinCacheNeverCachesSynopsisSubtrees(t *testing.T) {
	fact, cust := bigOrders(20000), customersTable()
	sample := synopses.BuildSampleFromTable("cust_sample", cust, synopses.NewUniformSampler(0.9, 5), nil)
	for name, build := range map[string]plan.Node{
		"sampler":       &plan.SynopsisOp{Child: &plan.Scan{Table: cust}, Kind: plan.UniformSample, P: 0.9},
		"synopsis scan": &plan.SynopsisScan{Sample: sample, Label: "cust_sample"},
		"sampler under filter": &plan.Filter{
			Child: &plan.SynopsisOp{Child: &plan.Scan{Table: cust}, Kind: plan.UniformSample, P: 0.9},
			Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "cust.id"}, R: expr.Int(7)},
		},
	} {
		ctx := NewContext(0.95)
		ctx.Joins = NewJoinCache(1 << 20)
		_, err := Compile(regionCount(&plan.Scan{Table: fact}, build), 42, ctx)
		if err == nil || !strings.Contains(err.Error(), "in a join's build side") {
			t.Fatalf("%s: err = %v, want a build-side refusal", name, err)
		}
		if ctx.Joins.ll.Len() != 0 {
			t.Fatalf("%s: cache holds %d entries, want none", name, ctx.Joins.ll.Len())
		}
	}
}

// TestJoinCacheEvictsLRU: under a bound that fits two of three build tables
// the least recently used one goes, a re-touched one stays, and answers
// never notice.
func TestJoinCacheEvictsLRU(t *testing.T) {
	fact, cust := bigOrders(20000), customersTable()
	roots := map[int64]plan.Node{}
	want := map[int64]string{}
	for _, v := range []int64{3, 5, 8} {
		roots[v] = regionCount(&plan.Scan{Table: fact}, custBelow(cust, v))
		want[v], _ = cachedRun(t, roots[v], nil, nil)
	}
	// Size the bound from the tables themselves: room for the 5- and 8-row
	// builds together, not for all three.
	size := func(v int64) int64 {
		probe := NewJoinCache(1 << 20)
		cachedRun(t, roots[v], probe, nil)
		cachedRun(t, roots[v], probe, nil)
		return probe.bytes
	}
	jc := NewJoinCache(size(5) + size(8))
	jc.Obs = &obs.JoinCacheObs{}
	run := func(v int64) {
		t.Helper()
		if got, _ := cachedRun(t, roots[v], jc, nil); got != want[v] {
			t.Fatalf("build cust.id < %d diverges from the uncached run", v)
		}
	}
	expect := func(rows ...int) {
		t.Helper()
		if got := fmt.Sprint(jc.residentRows()); got != fmt.Sprint(rows) {
			t.Fatalf("resident tables (rows, most recent first) = %s, want %v", got, rows)
		}
	}
	for _, v := range []int64{3, 3, 5, 5} {
		run(v)
	}
	expect(5, 3)
	run(3) // a hit: 3 is now the more recent of the two
	expect(3, 5)
	run(8)
	run(8) // admitting 8 evicts 5, the tail
	expect(8, 3)
	run(5)
	run(5) // and 5 coming back evicts 3
	expect(5, 8)
	if ev, gauge := jc.Obs.Evictions.Value(), jc.Obs.ResidentBytes.Value(); ev != 2 || gauge != jc.bytes || jc.bytes > jc.maxBytes {
		t.Fatalf("evictions = %d (want 2), gauge %d vs %d resident under bound %d", ev, gauge, jc.bytes, jc.maxBytes)
	}

	// A table larger than the whole bound is never admitted.
	tiny := NewJoinCache(8)
	tiny.Obs = &obs.JoinCacheObs{}
	for i := 0; i < 3; i++ {
		if got, _ := cachedRun(t, roots[8], tiny, nil); got != want[8] {
			t.Fatal("a cache too small to admit anything changed an answer")
		}
	}
	if tiny.bytes != 0 || tiny.Obs.Admissions.Value() != 0 || len(tiny.residentRows()) != 0 {
		t.Fatalf("an 8-byte cache admitted %d bytes", tiny.bytes)
	}
}

// TestJoinCacheEmptyBuild: a cached build that is empty still proves the
// join empty — the hit takes the O(1) early-out without scanning the probe
// side — and still gives way to a pending sampler materialization, which
// needs the probe pass to run.
func TestJoinCacheEmptyBuild(t *testing.T) {
	fact, cust := bigOrders(20000), customersTable()
	syn := &plan.SynopsisOp{Child: &plan.Scan{Table: fact}, Kind: plan.UniformSample, P: 0.2}
	root := regionCount(syn, custBelow(cust, -1))
	root.GroupBy = nil

	jc := NewJoinCache(1 << 20)
	want, _ := cachedRun(t, root, nil, nil)
	for run := 0; run < 3; run++ {
		got, ctx := cachedRun(t, root, jc, nil)
		if got != want {
			t.Fatalf("run %d over an empty build diverges from the uncached run", run)
		}
		if ctx.Stats.BaseBytes >= fact.Bytes() {
			t.Fatalf("run %d scanned the probe side of an empty join (BaseBytes=%d)", run, ctx.Stats.BaseBytes)
		}
	}
	if rows := jc.residentRows(); len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("resident tables = %v, want the one empty build", rows)
	}

	materialize := func(ctx *Context) { ctx.MaterializeSamples[syn] = "byproduct" }
	wantMat, wantCtx := cachedRun(t, root, nil, materialize)
	got, ctx := cachedRun(t, root, jc, materialize)
	if got != wantMat {
		t.Fatalf("materializing run over a cached empty build diverges:\n%s\nvs\n%s", got, wantMat)
	}
	if len(ctx.Stats.BuiltSamples) != 1 || len(wantCtx.Stats.BuiltSamples) != 1 {
		t.Fatalf("built samples = %d (cached) / %d (uncached), want 1 each",
			len(ctx.Stats.BuiltSamples), len(wantCtx.Stats.BuiltSamples))
	}
	if a, b := ctx.Stats.BuiltSamples[0].Sample, wantCtx.Stats.BuiltSamples[0].Sample; a.Rows.NumRows() == 0 ||
		a.Rows.NumRows() != b.Rows.NumRows() || a.SourceRows != b.SourceRows {
		t.Fatalf("byproduct sample over a cached empty build: %d rows of %d, uncached %d of %d",
			a.Rows.NumRows(), a.SourceRows, b.Rows.NumRows(), b.SourceRows)
	}
}

// TestJoinCacheChecksTableIdentity: Catalog.Register can put a different
// table under a name at an unchanged epoch, which the key's name@epoch
// cannot tell apart; a hit therefore also demands the very table pointer
// the entry was built from.
func TestJoinCacheChecksTableIdentity(t *testing.T) {
	fact := bigOrders(20000)
	oldCust := customersTable()
	b := storage.NewBuilder("cust", oldCust.Schema())
	for i := 0; i < 10; i++ {
		b.Int(0, int64(i))
		b.Str(1, "north") // same name, same epoch, different rows
	}
	newCust := b.Build(1)
	if oldCust.Epoch() != newCust.Epoch() {
		t.Fatalf("fixture: epochs differ (%d vs %d), the key alone would tell the tables apart", oldCust.Epoch(), newCust.Epoch())
	}

	jc := NewJoinCache(1 << 20)
	oldRoot := regionCount(&plan.Scan{Table: fact}, custBelow(oldCust, 7))
	for run := 0; run < 3; run++ {
		cachedRun(t, oldRoot, jc, nil)
	}
	newRoot := regionCount(&plan.Scan{Table: fact}, custBelow(newCust, 7))
	want, _ := cachedRun(t, newRoot, nil, nil)
	for run := 0; run < 3; run++ {
		if got, _ := cachedRun(t, newRoot, jc, nil); got != want {
			t.Fatalf("run %d over the replaced table was answered from the old table's entry:\n%s\nvs\n%s", run, got, want)
		}
	}
	if rows := jc.residentRows(); len(rows) != 1 {
		t.Fatalf("resident tables = %v, want only the replaced table's build", rows)
	}
}
