package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/workload"
)

// Fast-path differential harness: the plan cache is supposed to be invisible
// to query answers. A hit replays the candidate set a cold PlanWith against
// the same (table epochs, snapshot identity) state would rebuild; plan
// choice, execution seeding and benefit recording all still run per query.
// The tests below drive the PR-6 randomized stream — interleaved queries and
// append batches — through asynchronous engines that differ only in whether
// the cache is enabled, and demand bit-equal results. Drain() after every
// Execute pins the background tuning rounds to deterministic boundaries, so
// both engines see the identical snapshot sequence.

// runFastPathStream replays the fixed differential stream through a fresh
// asynchronous ModeTaster engine with the given plan cache size (negative
// disables caching), then replays every query twice back to back. The
// stream's 30 query instances are pairwise distinct (randomized parameters),
// so in-stream occurrences never share a key, and the tuner's occasional
// steady-state rearrangements advance the snapshot identity every ~20 rounds
// — repeats must land inside one identity window to hit, which back-to-back
// pairs (one tuning round apart) reliably do. The first of each pair re-keys
// the instance against the post-append epochs (a miss, by construction); the
// second is the lookup that actually traverses the hit path.
func runFastPathStream(t *testing.T, cacheSize, workers int) (diffRun, obs.MetricsSnapshot) {
	t.Helper()
	w := workload.TPCH(0.004, 3)
	ops, err := w.Stream(diffStreamCfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes, rows := w.CostScale()
	e := New(w.Catalog, Config{
		Mode:          ModeTaster,
		StorageBudget: bytes / 2,
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          7,
		Workers:       workers,
		MaxStaleness:  0.15,
		PlanCacheSize: cacheSize,
		Metrics:       obs.NewMetrics(),
	})
	defer e.Close()
	// Pin plan costing as in runDifferentialStreamPinned: worker count
	// deliberately enters the cost model, and these tests vary Workers while
	// asserting identical plan choice.
	e.pl.Parallelism = 4

	var run diffRun
	exec1 := func(sql string) {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		// Determinism barrier: fold this query's observation (and byproduct
		// admissions) into the published snapshot before the next query plans.
		e.Drain()
		run.rows = append(run.rows, res.Rows...)
		run.ivs = append(run.ivs, res.Intervals...)
		run.used = append(run.used, len(res.Report.UsedSynopses))
	}
	var sqls []string
	for _, op := range ops {
		if op.Append != nil {
			if _, err := e.Ingest(op.Append.Table, op.Append.Rows); err != nil {
				t.Fatalf("ingest %s: %v", op.Append.Table, err)
			}
			continue
		}
		sqls = append(sqls, op.SQL)
		exec1(op.SQL)
	}
	for _, sql := range sqls {
		exec1(sql)
		exec1(sql)
	}
	return run, e.MetricsSnapshot()
}

// TestDifferentialPlanCacheTransparent: the acceptance criterion — at worker
// counts 1, 4 and 8, with appends landing mid-stream (epoch invalidations)
// and a snapshot republish after every query, the cached engine's answers
// are bit-identical to the cache-disabled engine's. The hit assertion keeps
// the equivalence non-vacuous: at least part of the replayed stream must
// actually have been served from the cache.
func TestDifferentialPlanCacheTransparent(t *testing.T) {
	var hot1 diffRun
	for i, workers := range []int{1, 4, 8} {
		cold, coldStats := runFastPathStream(t, -1, workers)
		hot, hotStats := runFastPathStream(t, 4096, workers)
		label := map[int]string{1: "workers=1", 4: "workers=4", 8: "workers=8"}[workers]
		mustEqualRuns(t, "cached vs cold "+label, cold, hot)
		if hotStats.PlanCacheHits == 0 {
			t.Fatalf("%s: cached run never hit; differential coverage is vacuous", label)
		}
		if coldStats.PlanCacheHits != 0 || coldStats.PlanCacheMisses != 0 {
			t.Fatalf("%s: disabled cache must not count lookups (hits %d, misses %d)", label, coldStats.PlanCacheHits, coldStats.PlanCacheMisses)
		}
		// The cached runs must also agree with each other across worker
		// counts: hit-path execution is worker-oblivious like everything else.
		if i == 0 {
			hot1 = hot
		} else {
			mustEqualRuns(t, "cached workers=1 vs "+label, hot1, hot)
		}
	}
}

// TestPlanCacheHitDeterministicAndInvalidated: steady-state behaviour of one
// repeated template on a single engine — repeats converge to the hit path,
// hit-path answers are bit-identical to each other, and an ingest-driven
// epoch bump forces the next lookup to miss (invalidation by construction).
func TestPlanCacheHitDeterministicAndInvalidated(t *testing.T) {
	w := workload.TPCH(0.004, 3)
	ops, err := w.Stream(diffStreamCfg)
	if err != nil {
		t.Fatal(err)
	}
	var sql string
	var app *workload.AppendBatch
	for _, op := range ops {
		if op.Append != nil && app == nil {
			app = op.Append
		}
		if op.Append == nil && sql == "" {
			sql = op.SQL
		}
	}
	if sql == "" || app == nil {
		t.Fatal("stream has no query or no append")
	}
	bytes, rows := w.CostScale()
	e := New(w.Catalog, Config{
		Mode:          ModeTaster,
		StorageBudget: bytes / 2,
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          7,
		Workers:       2,
		MaxStaleness:  0.15,
		Metrics:       obs.NewMetrics(),
	})
	defer e.Close()

	exec1 := func() diffRun {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		e.Drain()
		return diffRun{rows: res.Rows, ivs: res.Intervals, used: []int{len(res.Report.UsedSynopses)}}
	}

	// Warmup repeats: the first execution misses and may materialize a
	// byproduct (whose admission advances the snapshot identity); once the
	// warehouse stops rearranging, the identity carries forward across the
	// per-query republishes and repeats hit.
	var prev, last diffRun
	for i := 0; i < 8; i++ {
		prev, last = last, exec1()
	}
	if e.MetricsSnapshot().PlanCacheHits == 0 {
		t.Fatal("8 identical repeats never hit the plan cache")
	}
	// The last two repeats are both steady-state: same key, same plan set,
	// same plan text, same seed — their answers must be bit-identical.
	mustEqualRuns(t, "steady-state repeats", prev, last)

	// Ingest bumps the bound table epochs: the next lookup keys differently
	// and must miss — a stale entry is never consulted.
	if _, err := e.Ingest(app.Table, app.Rows); err != nil {
		t.Fatal(err)
	}
	before := e.MetricsSnapshot().PlanCacheMisses
	exec1()
	if after := e.MetricsSnapshot().PlanCacheMisses; after != before+1 {
		t.Fatalf("post-ingest lookup must miss: misses %d before, %d after", before, after)
	}
}

// TestPlanCacheStorm: Execute vs Ingest vs cache eviction under -race. An
// undersized cache (2 entries, ~18 query templates) churns the LRU while
// four query goroutines and one ingest goroutine run concurrently; the test
// asserts race-freedom (via the -race harness), that every query succeeds,
// and that evictions actually happened so the churn is not hypothetical.
func TestPlanCacheStorm(t *testing.T) {
	w := workload.TPCH(0.004, 3)
	ops, err := w.Stream(workload.StreamConfig{Queries: 24, AppendEvery: 4, BatchFrac: 0.05, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	var appends []*workload.AppendBatch
	for _, op := range ops {
		if op.Append != nil {
			appends = append(appends, op.Append)
		} else {
			sqls = append(sqls, op.SQL)
		}
	}
	bytes, rows := w.CostScale()
	e := New(w.Catalog, Config{
		Mode:          ModeTaster,
		StorageBudget: bytes / 2,
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          7,
		Workers:       2,
		MaxStaleness:  0.15,
		PlanCacheSize: 2,
		Metrics:       obs.NewMetrics(),
	})
	defer e.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(sqls); i++ {
				sql := sqls[(g+i)%len(sqls)]
				q, err := sqlparser.Parse(sql, w.Catalog)
				if err != nil {
					t.Errorf("parse: %v", err)
					return
				}
				if _, err := e.Execute(q); err != nil {
					t.Errorf("execute: %v\nSQL: %s", err, sql)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, a := range appends {
			if _, err := e.Ingest(a.Table, a.Rows); err != nil {
				t.Errorf("ingest %s: %v", a.Table, err)
				return
			}
		}
	}()
	wg.Wait()
	e.Quiesce()
	s := e.MetricsSnapshot()
	if s.PlanCacheEvictions == 0 {
		t.Fatal("storm never evicted from the undersized cache")
	}
	if s.PlanCacheMisses == 0 {
		t.Fatal("storm never missed")
	}
}

// servedHitShare warms a serving-shaped engine until a full pass neither
// rearranges the warehouse nor misses the plan cache (bounded), then lets
// `clients` goroutines jointly drain six passes over the query list and
// returns the plan-cache hit share of that closed loop alone. The settings
// are benchmark/'s dash_repeat ones: Workers 1, a fixed window of 2× the
// distinct shapes and a 4× storage budget, so the keep set — and with it the
// snapshot identity that keys the cache — goes quiescent once warm.
func servedHitShare(t *testing.T, clients int) float64 {
	t.Helper()
	w := workload.TPCH(0.002, 7)
	sqls := w.Queries(12, 7)
	bytes, rows := w.CostScale()
	e := New(w.Catalog, Config{
		Mode:          ModeTaster,
		StorageBudget: bytes * 4,
		BufferSize:    bytes,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          7,
		Workers:       1,
		Tuner:         tuner.Config{Window: 2 * len(sqls), Alpha: 0.25, MaxWindow: 2 * len(sqls)},
		Metrics:       obs.NewMetrics(),
	})
	defer e.Close()
	exec1 := func(sql string) {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Errorf("parse: %v\nSQL: %s", err, sql)
			return
		}
		if _, err := e.Execute(q); err != nil {
			t.Errorf("execute: %v\nSQL: %s", err, sql)
		}
	}

	prevMoves, prevMisses := int64(-1), int64(-1)
	for pass := 0; pass < 12; pass++ {
		for _, sql := range sqls {
			exec1(sql)
		}
		e.Quiesce()
		s := e.MetricsSnapshot()
		moves := s.WarehouseAdmissions + s.WarehouseRefreshes + s.WarehouseEvictions + s.WarehousePromotions
		if moves == prevMoves && s.PlanCacheMisses == prevMisses {
			break
		}
		prevMoves, prevMisses = moves, s.PlanCacheMisses
	}
	warm := e.MetricsSnapshot()

	total := 6 * len(sqls)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < total; i = int(next.Add(1)) - 1 {
				exec1(sqls[i%len(sqls)])
			}
		}()
	}
	wg.Wait()
	e.Quiesce()
	s := e.MetricsSnapshot()
	hits := s.PlanCacheHits - warm.PlanCacheHits
	return float64(hits) / float64(hits+s.PlanCacheMisses-warm.PlanCacheMisses)
}

// TestPlanCacheHitShareSurvivesSecondClient: warmed to quiescence, a second
// closed-loop client must not shred the plan cache. The historical failure
// was a 26 % two-client hit share between 81 % and 89 % neighbours, from
// timing the loop one pass before the snapshot identity stopped advancing;
// residual rearrangements under contention still cost a few misses, hence a
// slack band rather than equality.
func TestPlanCacheHitShareSurvivesSecondClient(t *testing.T) {
	one, two := servedHitShare(t, 1), servedHitShare(t, 2)
	if one == 0 {
		t.Fatal("one warmed client never hit the plan cache; the comparison is vacuous")
	}
	if two < one-0.25 {
		t.Fatalf("two-client plan-cache hit share %.0f%% collapsed below the one-client %.0f%%", 100*two, 100*one)
	}
}
