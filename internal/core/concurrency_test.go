package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// mixedQueries returns a fresh list of query constructors — Execute mutates
// the Query in place, so every run needs its own values. The mix covers the
// single-table spine, the join spine, filters and an exact (MIN) query.
func mixedQueries(e *Engine) []func() *planner.Query {
	sales, _ := e.Catalog().Table("sales")
	products, _ := e.Catalog().Table("products")
	single := func(agg stats.AggKind, col string) func() *planner.Query {
		return func() *planner.Query {
			return &planner.Query{
				Tables:   []planner.TableRef{{Name: "sales", Table: sales}},
				GroupBy:  []string{"sales.product"},
				Aggs:     []plan.AggSpec{{Kind: agg, Col: col}},
				Accuracy: stats.DefaultAccuracy,
			}
		}
	}
	join := func() *planner.Query {
		return &planner.Query{
			Tables: []planner.TableRef{{Name: "sales", Table: sales}, {Name: "products", Table: products}},
			Joins: []planner.JoinPred{{
				LeftTable: "sales", LeftCol: "sales.product",
				RightTable: "products", RightCol: "products.id",
			}},
			GroupBy:  []string{"products.category"},
			Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "sales.qty"}},
			Accuracy: stats.DefaultAccuracy,
		}
	}
	filtered := func() *planner.Query {
		q := single(stats.Sum, "sales.qty")()
		q.Filter = expr.Pred{expr.Compare("sales.product", expr.LT, storage.IntValue(20))}
		return q
	}
	exact := func() *planner.Query {
		q := single(stats.Min, "sales.price")() // MIN forces the exact plan
		return q
	}
	return []func() *planner.Query{
		single(stats.Sum, "sales.qty"),
		join,
		filtered,
		single(stats.Avg, "sales.price"),
		exact,
		single(stats.Count, ""),
	}
}

// resultFingerprint canonicalizes a result for byte-identity comparison.
func resultFingerprint(r *Result) string {
	return fmt.Sprintf("%v|%v|%v", r.Columns, r.Rows, r.Intervals)
}

// TestConcurrentQuickrMatchesSequential issues a mixed workload against one
// Quickr engine from many goroutines and asserts every query's result is
// byte-identical to a sequential run at the same seed. Quickr never shares
// synopsis state between queries, and the executor seed derives from the
// plan (not the arrival order), so interleaving must not change any answer.
// Run with -race to also verify the read path is race-free.
func TestConcurrentQuickrMatchesSequential(t *testing.T) {
	const rounds = 4 // each query from the mix runs this many times

	build := func() (*Engine, []func() *planner.Query) {
		e := testEngine(ModeQuickr)
		mix := mixedQueries(e)
		var qs []func() *planner.Query
		for r := 0; r < rounds; r++ {
			qs = append(qs, mix...)
		}
		return e, qs
	}

	// Sequential reference.
	seqEngine, seqQs := build()
	want := make([]string, len(seqQs))
	for i, mk := range seqQs {
		res, err := seqEngine.Execute(mk())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultFingerprint(res)
	}

	// Concurrent run: goroutines claim query indexes from an atomic counter.
	parEngine, parQs := build()
	got := make([]string, len(parQs))
	errs := make([]error, len(parQs))
	var next int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(parQs) {
					return
				}
				res, err := parEngine.Execute(parQs[i]())
				if err != nil {
					errs[i] = err
					continue
				}
				got[i] = resultFingerprint(res)
			}
		}()
	}
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("query %d diverges under concurrency:\nconcurrent %.160s\nsequential %.160s", i, got[i], want[i])
		}
	}
}

// TestConcurrentTasterServing hammers a full Taster engine (tuning, synopsis
// materialization, reuse, eviction and elastic budget changes all active)
// from many goroutines. Reuse decisions legitimately depend on arrival
// order, so this test asserts invariants — correct group counts, accurate
// answers, quota respected, telemetry consistent — rather than byte
// identity; under -race it proves the serving path is data-race-free.
func TestConcurrentTasterServing(t *testing.T) {
	e := testEngine(ModeTaster)
	truth := exactAnswer(t)
	mix := mixedQueries(e)

	const goroutines = 8
	const perG = 6
	var repMu sync.Mutex
	var queryIDs []int
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g == 0 && i == 3 {
					// An elastic budget change in mid-flight traffic.
					e.SetStorageBudget(e.Catalog().TotalBytes() / 2)
				}
				mk := mix[(g*perG+i)%len(mix)]
				res, err := e.Execute(mk())
				if err != nil {
					errCh <- err
					return
				}
				repMu.Lock()
				queryIDs = append(queryIDs, res.Report.QueryID)
				repMu.Unlock()
				if len(res.Rows) == 0 {
					errCh <- fmt.Errorf("goroutine %d query %d: empty result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The join query's answers must stay accurate after the storm.
	res, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		want := truth[r[0].I]
		got := r[1].F
		if rel := abs(got-want) / want; rel > 0.15 {
			t.Fatalf("category %d: rel error %.3f after concurrent serving", r[0].I, rel)
		}
	}
	// Telemetry: one report per executed query, IDs unique.
	mustBeDistinctQueryIDs(t, append(queryIDs, res.Report.QueryID), goroutines*perG+1)
}

// mustBeDistinctQueryIDs fails unless ids — the Report.QueryID of every
// result a test collected — are want distinct values.
func mustBeDistinctQueryIDs(t *testing.T, ids []int, want int) {
	t.Helper()
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate query ID %d in reports", id)
		}
		seen[id] = true
	}
	if len(ids) != want {
		t.Fatalf("reports = %d, want %d", len(ids), want)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
