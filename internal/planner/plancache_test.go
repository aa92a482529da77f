package planner

import (
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

func cacheTestTable(t *testing.T, name string, rows int) *storage.Table {
	t.Helper()
	b := storage.NewBuilder(name, storage.Schema{
		{Name: name + ".k", Typ: storage.Int64},
		{Name: name + ".v", Typ: storage.Float64},
	})
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i%7))
		b.Float(1, float64(i))
	}
	return b.Build(2)
}

func cacheTestQuery(tbl *storage.Table) *Query {
	return &Query{
		Tables:   []TableRef{{Name: tbl.Name, Table: tbl}},
		Filter:   expr.Pred{expr.Compare(tbl.Name+".v", expr.GE, storage.FloatValue(10))},
		GroupBy:  []string{tbl.Name + ".k"},
		Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: tbl.Name + ".v"}},
		Accuracy: stats.DefaultAccuracy,
	}
}

// TestCacheKeyInvalidation: every input that changes planning must change
// the key; repeated identical queries must not.
func TestCacheKeyInvalidation(t *testing.T) {
	tbl := cacheTestTable(t, "t", 100)
	q := cacheTestQuery(tbl)
	base := CacheKey(q, 1)

	if CacheKey(cacheTestQuery(tbl), 1) != base {
		t.Fatal("identical query must produce an identical key")
	}
	if CacheKey(q, 2) == base {
		t.Fatal("snapshot identity must be part of the key")
	}
	q2 := cacheTestQuery(tbl)
	q2.Accuracy.RelError = 0.01
	if CacheKey(q2, 1) == base {
		t.Fatal("accuracy must be part of the key")
	}
	q3 := cacheTestQuery(tbl)
	q3.Exact = true
	if CacheKey(q3, 1) == base {
		t.Fatal("exact flag must be part of the key")
	}
	q4 := cacheTestQuery(tbl)
	q4.Filter = nil
	if CacheKey(q4, 1) == base {
		t.Fatal("filter must be part of the key")
	}
	q5 := cacheTestQuery(tbl)
	q5.Limit, q5.OrderBy, q5.Desc = 3, []string{"t.k"}, []bool{true}
	if CacheKey(q5, 1) == base {
		t.Fatal("order/limit must be part of the key")
	}

	// Ingest produces a new table version with a bumped epoch: a query bound
	// to it must key differently, so stale entries are never consulted
	// (invalidation by construction).
	tbl2, err := tbl.Append(cacheTestTable(t, "t", 5))
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(cacheTestQuery(tbl2), 1) == base {
		t.Fatal("table epoch must be part of the key")
	}
}

// TestPlanCacheLRU: bound is enforced, eviction is least-recently-used, and
// the counters account every lookup.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	c.Obs = &obs.PlanCacheObs{}
	a, b, d := &PlanSet{}, &PlanSet{}, &PlanSet{}
	c.Put("a", a)
	c.Put("b", b)
	if got, ok := c.Get("a"); !ok || got != a {
		t.Fatal("expected hit for a")
	}
	c.Put("d", d) // evicts b (a was touched more recently)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if got, ok := c.Get("a"); !ok || got != a {
		t.Fatal("a must survive the eviction")
	}
	if got, ok := c.Get("d"); !ok || got != d {
		t.Fatal("d must be cached")
	}
	if h, m, ev := c.Obs.Hits.Value(), c.Obs.Misses.Value(), c.Obs.Evictions.Value(); h != 3 || m != 1 || ev != 1 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 3/1/1", h, m, ev)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestPlanCacheDisabled: max <= 0 and nil receivers never cache.
func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache(0)
	c.Put("a", &PlanSet{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must not store")
	}
	var nilC *PlanCache
	nilC.Put("a", &PlanSet{})
	if _, ok := nilC.Get("a"); ok {
		t.Fatal("nil cache must miss")
	}
	if nilC.Len() != 0 {
		t.Fatal("nil cache must report zero state")
	}
}

// TestPlanCacheManyTenants: a flood of distinct keys stays bounded.
func TestPlanCacheManyTenants(t *testing.T) {
	c := NewPlanCache(64)
	c.Obs = &obs.PlanCacheObs{}
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("tenant-%d", i), &PlanSet{})
	}
	if c.Len() != 64 {
		t.Fatalf("len = %d, want 64", c.Len())
	}
	if ev := c.Obs.Evictions.Value(); ev != 10_000-64 {
		t.Fatalf("evictions = %d, want %d", ev, 10_000-64)
	}
}
