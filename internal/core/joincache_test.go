package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// resultPrint is everything a Result promises a caller, bit for bit: rows,
// intervals, the simulated cost and scan bytes the cost counters produce,
// and the plan that ran.
func resultPrint(res *Result) string {
	return fmt.Sprintf("%v|%v|sim=%016x scan=%d %s\n%s", res.Rows, res.Intervals,
		math.Float64bits(res.Report.SimSeconds), res.Report.ScanBytes, res.Report.PlanDesc, res.Report.PlanTree)
}

func mustExecute(t *testing.T, e *Engine, cat *storage.Catalog, sql string) *Result {
	t.Helper()
	q, err := sqlparser.Parse(sql, cat)
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, sql)
	}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, sql)
	}
	return res
}

// tpchPair opens two engines over two identical TPC-H catalogs; the second
// runs with no join cache on its contexts — the behaviour of the parent of
// the cache, and the reference every cached answer is held to.
func tpchPair(t *testing.T, mode Mode) (w *workload.Workload, cached *Engine, bareCat *storage.Catalog, bare *Engine) {
	t.Helper()
	open := func(w *workload.Workload) *Engine {
		bytes, rows := w.CostScale()
		return New(w.Catalog, Config{
			Mode:          mode,
			StorageBudget: bytes / 2,
			BufferSize:    bytes / 8,
			CostModel:     storage.ScaledCostModel(bytes, rows),
			Seed:          7,
			Workers:       2,
			Synchronous:   true,
			Metrics:       obs.NewMetrics(),
		})
	}
	w, w2 := workload.TPCH(0.004, 3), workload.TPCH(0.004, 3)
	cached, bare = open(w), open(w2)
	bare.joinCache = nil
	return w, cached, w2.Catalog, bare
}

// TestJoinCacheAnswerNeutral runs every TPC-H template three times on an
// inline engine — a build key's first sight, which admits it, and two hits
// — and holds each Result to an engine that builds every join per query.
// The tuner evolves identically on both (the cache is invisible to plan
// choice), so the comparison also covers reuse plans and sketch-join probes.
func TestJoinCacheAnswerNeutral(t *testing.T) {
	w, cached, bareCat, bare := tpchPair(t, ModeTaster)
	r := rand.New(rand.NewSource(5))
	for _, tpl := range w.Templates {
		sql := tpl.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
		for rep := 0; rep < 3; rep++ {
			got := resultPrint(mustExecute(t, cached, w.Catalog, sql))
			want := resultPrint(mustExecute(t, bare, bareCat, sql))
			if got != want {
				t.Fatalf("%s run %d: cached engine diverges\n%.600s\nvs\n%.600s", tpl.Name, rep, got, want)
			}
		}
	}
	s := cached.MetricsSnapshot()
	if s.JoinCacheHits == 0 || s.JoinCacheAdmissions == 0 || s.JoinCacheMisses == 0 || s.JoinCacheBytes == 0 {
		t.Fatalf("the comparison was vacuous: join cache hits/admissions/misses/bytes %d/%d/%d/%d",
			s.JoinCacheHits, s.JoinCacheAdmissions, s.JoinCacheMisses, s.JoinCacheBytes)
	}
	if s := bare.MetricsSnapshot(); s.JoinCacheHits != 0 || s.JoinCacheMisses != 0 || s.JoinCacheAdmissions != 0 ||
		s.JoinCacheEvictions != 0 || s.JoinCacheBytes != 0 {
		t.Fatalf("the reference engine has no cache, yet reports hits/misses/admissions/evictions/bytes %d/%d/%d/%d/%d",
			s.JoinCacheHits, s.JoinCacheMisses, s.JoinCacheAdmissions, s.JoinCacheEvictions, s.JoinCacheBytes)
	}
}

// TestJoinCacheIngest: an append into a build-side table moves its epoch, so
// the next query builds afresh — answering exactly like an engine opened over
// the appended catalog — and the old version's entry is never looked at
// again; an append into the probe-side table leaves the dimension entries
// hitting.
func TestJoinCacheIngest(t *testing.T) {
	w, cached, bareCat, bare := tpchPair(t, ModeExact)
	const sql = `SELECT o_orderpriority, SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice > 100000 GROUP BY o_orderpriority`
	step := func(label string, wantHits, wantMisses int64) {
		t.Helper()
		got := resultPrint(mustExecute(t, cached, w.Catalog, sql))
		if want := resultPrint(mustExecute(t, bare, bareCat, sql)); got != want {
			t.Fatalf("%s: cached engine diverges\n%.600s\nvs\n%.600s", label, got, want)
		}
		if s := cached.MetricsSnapshot(); s.JoinCacheHits != wantHits || s.JoinCacheMisses != wantMisses {
			t.Fatalf("%s: hits/misses = %d/%d, want %d/%d", label, s.JoinCacheHits, s.JoinCacheMisses, wantHits, wantMisses)
		}
	}
	ingest := func(table string, seed int64) {
		t.Helper()
		for _, side := range []struct {
			e   *Engine
			cat *storage.Catalog
		}{{cached, w.Catalog}, {bare, bareCat}} {
			src, err := side.cat.Table(table)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := side.e.Ingest(table, workload.ResampleBatch(src, 64, rand.New(rand.NewSource(seed)))); err != nil {
				t.Fatal(err)
			}
		}
	}

	step("first sight", 0, 1)
	step("hit", 1, 1)
	step("second hit", 2, 1)

	ingest("orders", 21)
	step("after a build-side append", 2, 2) // a miss: the old entry's key names the old epoch
	step("hit on the new version", 3, 2)

	ingest("lineitem", 22)
	step("after a probe-side append", 4, 2)

	if s := cached.MetricsSnapshot(); s.JoinCacheAdmissions != 2 || s.JoinCacheEvictions != 0 {
		t.Fatalf("admissions/evictions = %d/%d, want 2/0 (the old version ages out, it is not purged)", s.JoinCacheAdmissions, s.JoinCacheEvictions)
	}
}

// TestJoinCacheRacingColdKey: the cache's mutex covers lookup and insert,
// never a build, so goroutines meeting on a cold key each build their own
// table. All of them must answer correctly, and exactly one table may stay.
func TestJoinCacheRacingColdKey(t *testing.T) {
	const sql = `SELECT c_mktsegment, COUNT(*) FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 50000 GROUP BY c_mktsegment`
	for round := 0; round < 4; round++ {
		w, cached, bareCat, bare := tpchPair(t, ModeExact)
		want := resultPrint(mustExecute(t, bare, bareCat, sql))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					q, err := sqlparser.Parse(sql, w.Catalog)
					if err != nil {
						t.Error(err)
						return
					}
					res, err := cached.Execute(q)
					if err != nil {
						t.Error(err)
						return
					}
					// Query ids are arrival numbers; everything else must match.
					if got := resultPrint(res); got != want {
						t.Errorf("racing query diverges\n%.400s\nvs\n%.400s", got, want)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if s := cached.MetricsSnapshot(); s.JoinCacheAdmissions != 1 || s.JoinCacheEvictions != 0 || s.JoinCacheHits == 0 || s.JoinCacheHits+s.JoinCacheMisses != 8 {
			t.Fatalf("round %d: join cache admissions/evictions/hits/misses %d/%d/%d/%d, want one admission, no eviction, 8 lookups with hits among them",
				round, s.JoinCacheAdmissions, s.JoinCacheEvictions, s.JoinCacheHits, s.JoinCacheMisses)
		}
	}
}

// TestJoinIndexPerVersion: a join's build side is a survivor mask over its
// table version's own key index. An Ingest into the build-side table gives
// the new version an index of its own, over all its rows — here no longer
// unique, since the appended rows repeat existing keys, so its masks go per
// row — while the old version keeps the very index it had, and a plan over
// the old version answers exactly as it did before the append.
func TestJoinIndexPerVersion(t *testing.T) {
	w, cached, bareCat, bare := tpchPair(t, ModeExact)
	const sql = `SELECT o_orderpriority, SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice > 100000 GROUP BY o_orderpriority`
	old, err := w.Catalog.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	li, err := w.Catalog.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	key := []int{old.Schema().Index("orders.o_orderkey")}
	overOld := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: li},
			Right: &plan.Filter{
				Child: &plan.Scan{Table: old},
				Pred:  expr.Pred{expr.Compare("orders.o_totalprice", expr.GT, storage.FloatValue(100000))},
			},
			LeftKeys: []string{"lineitem.l_orderkey"}, RightKeys: []string{"orders.o_orderkey"},
		},
		GroupBy: []string{"orders.o_orderpriority"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "lineitem.l_quantity"}},
	}
	runOld := func() string {
		t.Helper()
		ctx := exec.NewContext(0.95)
		op, err := exec.Compile(overOld, 1, ctx)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Run(op)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]storage.Value
		for i := 0; i < out.Len(); i++ {
			rows = append(rows, out.Row(i))
		}
		return fmt.Sprintf("%v|%+v", rows, *ctx.Stats)
	}

	mustExecute(t, cached, w.Catalog, sql)
	x0 := old.KeyIndex(key)
	keys0, oldAnswer := x0.Keys(), runOld()
	if keys0 != old.NumRows() {
		t.Fatalf("fixture: orders' key index holds %d keys over %d rows, want a unique key", keys0, old.NumRows())
	}

	for _, side := range []struct {
		e   *Engine
		cat *storage.Catalog
	}{{cached, w.Catalog}, {bare, bareCat}} {
		src, err := side.cat.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := side.e.Ingest("orders", workload.ResampleBatch(src, 64, rand.New(rand.NewSource(23)))); err != nil {
			t.Fatal(err)
		}
	}
	got := resultPrint(mustExecute(t, cached, w.Catalog, sql))
	if want := resultPrint(mustExecute(t, bare, bareCat, sql)); got != want {
		t.Fatalf("after the append: cached engine diverges\n%.600s\nvs\n%.600s", got, want)
	}
	nu, err := w.Catalog.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	x1 := nu.KeyIndex(key)
	if nu == old || x1 == x0 {
		t.Fatal("the appended version shares the old version's key index")
	}
	if x1.Keys() != keys0 || x1.Keys() == nu.NumRows() {
		t.Fatalf("new version's index: %d keys, want the old %d keys over %d rows, not unique", x1.Keys(), keys0, nu.NumRows())
	}
	if old.KeyIndex(key) != x0 || x0.Keys() != keys0 {
		t.Fatal("the append touched the old version's key index")
	}
	if a := runOld(); a != oldAnswer {
		t.Fatalf("a plan over the old version answers differently after the append:\n%.600s\nvs\n%.600s", a, oldAnswer)
	}
}
