package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/sqlparser"
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
// inline engine — a build key's first sight, its admission and its first hit
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
	step("admission", 0, 2)
	step("hit", 1, 2)

	ingest("orders", 21)
	step("after a build-side append", 1, 3) // a miss: the old entry's key names the old epoch
	step("re-admission", 1, 4)
	step("hit on the new version", 2, 4)

	ingest("lineitem", 22)
	step("after a probe-side append", 3, 4)

	if s := cached.MetricsSnapshot(); s.JoinCacheAdmissions != 2 || s.JoinCacheEvictions != 0 {
		t.Fatalf("admissions/evictions = %d/%d, want 2/0 (the old version ages out, it is not purged)", s.JoinCacheAdmissions, s.JoinCacheEvictions)
	}
}

// TestJoinCacheRacingColdKey: the cache's mutex covers lookup and insert,
// never a build, so goroutines meeting on a cold key each build their own
// table. All of them must answer correctly, and exactly one copy may stay.
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
