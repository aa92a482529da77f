package exec

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// custBelow is a build side over the customers table keeping cust.id < v.
func custBelow(cust *storage.Table, v int64) plan.Node {
	return &plan.Filter{
		Child: &plan.Scan{Table: cust},
		Pred:  expr.Pred{expr.Compare("cust.id", expr.LT, storage.IntValue(v))},
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

// residentRows lists the survivor counts of the resident tables, most recent
// first.
func (c *JoinCache) residentRows() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*joinCacheEntry).table.rows)
	}
	return out
}

// recount is the cache's bytes recomputed from its resident entries — each
// entry's own bytes plus, once per key index they read, what it pins — and
// how many indexes, so table versions, those entries keep alive.
func (c *JoinCache) recount() (bytes int64, versions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*storage.KeyIndex]bool)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*joinCacheEntry)
		bytes += e.bytes
		if x := e.table.idx; x != nil && !seen[x] {
			seen[x] = true
			bytes += pinnedBytes(e.source, e.table)
		}
	}
	return bytes, len(seen)
}

// TestJoinCacheFirstSightAndReplay walks one build key through its two
// states under both sinks: first sight builds the survivor mask and admits
// it, and every later run is a hit that opens nothing — yet rows, intervals
// and all five cost counters equal a run with no cache every time. This is
// what holds a hit's replayed charge to the build's.
func TestJoinCacheFirstSightAndReplay(t *testing.T) {
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
		for run := 0; run < 4; run++ {
			got, _ := cachedRun(t, root, jc, nil)
			if got != want {
				t.Fatalf("%s run %d diverges from the uncached run:\n%.300s\nvs\n%.300s", name, run, got, want)
			}
			if rows := jc.residentRows(); len(rows) != 1 || rows[0] != 7 {
				t.Fatalf("%s run %d: resident tables hold %v survivors, want [7]", name, run, rows)
			}
		}
		o := jc.Obs
		if o.Misses.Value() != 1 || o.Admissions.Value() != 1 || o.Hits.Value() != 3 || o.Evictions.Value() != 0 ||
			o.ResidentBytes.Value() <= 0 || o.ResidentBytes.Value() != jc.bytes {
			t.Fatalf("%s: misses/admissions/hits/evictions = %d/%d/%d/%d, resident %d bytes (cache holds %d); want 1/1/3/0 and resident bytes",
				name, o.Misses.Value(), o.Admissions.Value(), o.Hits.Value(), o.Evictions.Value(), o.ResidentBytes.Value(), jc.bytes)
		}
	}
}

// TestJoinCacheTraceMarksHits: a hit's build subtree was compiled and
// trace-wrapped but never opened; the trace must say so instead of showing a
// build that produced no rows, and its root must still carry the build's
// survivor count. (The join itself is part of the fused spine on a hit and a
// miss alike.)
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
	if strings.Contains(traces[0], "cached") {
		t.Fatalf("the miss's trace must be the plain build trace:\n%s", traces[0])
	}
	if traces[1] != traces[2] || traces[2] != traces[3] {
		t.Fatalf("hit traces differ across runs:\n%s\nvs\n%s\nvs\n%s", traces[1], traces[2], traces[3])
	}
	for _, want := range []string{
		"Join(orders.cust = cust.id)  (fused)",
		"└─ Filter(cust.id < 7)  (cached rows=7)",
		"   └─ Scan(cust)  (cached)",
	} {
		if !strings.Contains(traces[1], want) {
			t.Fatalf("hit trace missing %q:\n%s", want, traces[1])
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
			Pred:  expr.Pred{expr.Compare("cust.id", expr.LT, storage.IntValue(7))},
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

// TestJoinCacheEvictsLRU: under a bound that fits two of three build
// tables — told apart by their survivor counts — the least recently used one
// goes, a re-touched one stays, and answers never notice.
func TestJoinCacheEvictsLRU(t *testing.T) {
	fact, cust := bigOrders(20000), customersTable()
	roots := map[int64]plan.Node{}
	want := map[int64]string{}
	for _, v := range []int64{3, 5, 8} {
		roots[v] = regionCount(&plan.Scan{Table: fact}, custBelow(cust, v))
		want[v], _ = cachedRun(t, roots[v], nil, nil)
	}
	// Size the bound from the entries themselves: room for the 5- and
	// 8-survivor builds together and the one index all three pin, not for
	// all three builds.
	var pinned int64
	size := func(v int64) int64 {
		probe := NewJoinCache(1 << 20)
		cachedRun(t, roots[v], probe, nil)
		own := probe.ll.Front().Value.(*joinCacheEntry).bytes
		pinned = probe.bytes - own
		return own
	}
	jc := NewJoinCache(size(5) + size(8) + pinned)
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
			t.Fatalf("resident tables (survivors, most recent first) = %s, want %v", got, rows)
		}
	}
	for _, v := range []int64{3, 3, 5, 5} {
		run(v)
	}
	expect(5, 3)
	run(3) // a hit: 3 is now the more recent of the two
	expect(3, 5)
	run(8) // admitting 8 evicts 5, the tail
	run(8)
	expect(8, 3)
	run(5) // and 5 coming back evicts 3
	run(5)
	expect(5, 8)
	if ev, gauge := jc.Obs.Evictions.Value(), jc.Obs.ResidentBytes.Value(); ev != 2 || gauge != jc.bytes || jc.bytes > jc.maxBytes {
		t.Fatalf("evictions = %d (want 2), gauge %d vs %d resident under bound %d", ev, gauge, jc.bytes, jc.maxBytes)
	}

	// An entry larger than the whole bound is never admitted.
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

// TestJoinCacheBoundsPinnedVersions: an entry's table pins its version's
// key index and, on a multi-partition version, the whole-table column and
// width copies, and the byte bound counts them — once per index, however
// many entries read it. Under a bound with room for two versions' pins,
// six appends to the build-side table, each version queried under two
// filters, keep at most two versions alive: the older ones are evicted with
// their last entry, and answers never notice.
func TestJoinCacheBoundsPinnedVersions(t *testing.T) {
	fact := bigOrders(20000)
	custRows := func(lo, n int) *storage.Table {
		b := storage.NewBuilder("cust", customersTable().Schema())
		for i := lo; i < lo+n; i++ {
			b.Int(0, int64(i))
			b.Str(1, []string{"east", "west"}[i%2])
		}
		return b.Build(4)
	}
	cust := custRows(0, 4096)
	if cust.Partitions() < 2 {
		t.Fatalf("fixture: %d partitions, want several", cust.Partitions())
	}
	probe := NewJoinCache(1 << 30)
	cachedRun(t, regionCount(&plan.Scan{Table: fact}, custBelow(cust, 7)), probe, nil)
	entry := probe.ll.Front().Value.(*joinCacheEntry)
	pinned := probe.bytes - entry.bytes
	want := cust.KeyIndex([]int{0}).Bytes() + int64(cust.NumRows())*4
	for c := range cust.Schema() {
		want += cust.Column(c).Bytes() + int64(len(cust.Column(c).Code))*4
	}
	if pinned != want {
		t.Fatalf("one version pins %d bytes, want its index, row widths and column copies, %d", pinned, want)
	}

	jc := NewJoinCache(pinned * 5 / 2)
	jc.Obs = &obs.JoinCacheObs{}
	for version := 0; version < 7; version++ {
		if version > 0 {
			var err error
			if cust, err = cust.Append(custRows(cust.NumRows(), 64)); err != nil {
				t.Fatal(err)
			}
		}
		for _, below := range []int64{7, 3000, 7, 3000} {
			root := regionCount(&plan.Scan{Table: fact}, custBelow(cust, below))
			want, _ := cachedRun(t, root, nil, nil)
			if got, _ := cachedRun(t, root, jc, nil); got != want {
				t.Fatalf("version %d, cust.id < %d: diverges from the uncached run", version, below)
			}
		}
		bytes, versions := jc.recount()
		if bytes != jc.bytes || jc.bytes > jc.maxBytes || versions > 2 {
			t.Fatalf("version %d: %d bytes resident (recounted %d, bound %d) over %d versions, want at most 2",
				version, jc.bytes, bytes, jc.maxBytes, versions)
		}
		if p := jc.pins[cust.KeyIndex([]int{0})]; p == nil || p.entries != 2 {
			t.Fatalf("version %d: the current version's index is not pinned by its two entries", version)
		}
	}
	if jc.Obs.Evictions.Value() == 0 || len(jc.pins) > 2 {
		t.Fatalf("evictions = %d, %d indexes pinned: the old versions were never let go", jc.Obs.Evictions.Value(), len(jc.pins))
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
		t.Fatalf("resident tables hold %v survivors, want the one empty build", rows)
	}

	materialize := func(ctx *Context) { ctx.Materialize[syn] = 1 }
	wantMat, wantCtx := cachedRun(t, root, nil, materialize)
	got, ctx := cachedRun(t, root, jc, materialize)
	if got != wantMat {
		t.Fatalf("materializing run over a cached empty build diverges:\n%s\nvs\n%s", got, wantMat)
	}
	if len(ctx.Stats.Built) != 1 || len(wantCtx.Stats.Built) != 1 {
		t.Fatalf("built samples = %d (cached) / %d (uncached), want 1 each",
			len(ctx.Stats.Built), len(wantCtx.Stats.Built))
	}
	if a, b := ctx.Stats.Built[0].Synopsis.(*synopses.Sample), wantCtx.Stats.Built[0].Synopsis.(*synopses.Sample); a.Rows.NumRows() == 0 ||
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
