package planner

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
)

// CacheKey derives the plan cache identity of a query under a tuning
// snapshot. The key is invalidation-by-construction: it embeds
//
//   - the query's canonical signature in plan.Signature vocabulary (base
//     tables, canonical join predicates, filter conjuncts, output columns) —
//     kept in declaration order, not sorted, because the planner builds
//     left-deep join trees in table order and the seed derives from the
//     chosen plan's text, so order-insensitive keying could replay a
//     differently-shaped (still correct, but differently-sampled) plan;
//   - each table's version epoch, so Catalog.Append makes every prior entry
//     of that table unreachable;
//   - the full accuracy/order/limit/exact surface that steers candidate
//     generation;
//   - the snapshot identity (see core's tuningSnapshot.ident), so a publish
//     that rearranged the warehouse orphans every entry planned against the
//     old synopsis set.
//
// Stale entries are therefore never consulted; they age out of the LRU.
func CacheKey(q *Query, snapIdent uint64) string {
	var sig plan.Signature
	for _, t := range q.Tables {
		sig.Tables = append(sig.Tables, fmt.Sprintf("%s@%d", t.Name, t.Table.Epoch()))
	}
	for _, j := range q.Joins {
		sig.JoinPreds = append(sig.JoinPreds, j.Canonical())
	}
	for _, c := range expr.Conjuncts(q.Filter) {
		sig.Filters = append(sig.Filters, c.String())
	}
	sig.Output = append(append([]string(nil), q.GroupBy...), func() []string {
		out := make([]string, 0, len(q.Aggs))
		for _, a := range q.Aggs {
			out = append(out, a.Kind.String()+"("+a.Col+")as"+a.Alias)
		}
		return out
	}()...)

	var sb strings.Builder
	sb.WriteString(sig.Key())
	fmt.Fprintf(&sb, " ORD[%s", strings.Join(q.OrderBy, ","))
	for _, d := range q.Desc {
		if d {
			sb.WriteString(";d")
		} else {
			sb.WriteString(";a")
		}
	}
	fmt.Fprintf(&sb, "] L[%d] ACC[%g@%g] X[%v] SNAP[%d]",
		q.Limit, q.Accuracy.RelError, q.Accuracy.Confidence, q.Exact, snapIdent)
	return sb.String()
}

// PlanCacheStats is the cache's cumulative hit accounting.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// PlanCache is a bounded LRU from CacheKey to *PlanSet: the serving fast
// path's memo of candidate enumeration. Entries are immutable once stored —
// a hit re-runs only plan *choice* (gains change per snapshot) and
// execution, never candidate generation. Because keys embed table epochs
// and the snapshot identity, invalidation needs no explicit purge: stale
// keys simply stop being looked up and fall off the LRU tail. The bound
// keeps a many-tenant workload (millions of distinct query shapes) from
// growing the cache without limit; note each entry pins its plan trees and
// any resolved sample payloads until evicted.
type PlanCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	byKey map[string]*list.Element
	stats PlanCacheStats

	// Obs mirrors the hit/miss/eviction counters into the engine-wide metrics
	// registry. Write-only and nil-safe; the authoritative numbers for tuning
	// decisions stay in stats.
	Obs *obs.PlanCacheObs
}

type planCacheEntry struct {
	key string
	ps  *PlanSet
}

// NewPlanCache returns a cache bounded to max entries; max <= 0 disables
// caching (Get always misses, Put is a no-op).
func NewPlanCache(max int) *PlanCache {
	return &PlanCache{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached plan set for the key, promoting it to most
// recently used. Safe for concurrent use.
func (c *PlanCache) Get(key string) (*PlanSet, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		c.Obs.Miss()
		return nil, false
	}
	c.stats.Hits++
	c.Obs.Hit()
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).ps, true
}

// Put stores a plan set under the key, evicting the least recently used
// entry when the bound is exceeded. Storing an existing key refreshes its
// recency and replaces the value.
func (c *PlanCache) Put(key string, ps *PlanSet) {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planCacheEntry).ps = ps
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&planCacheEntry{key: key, ps: ps})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*planCacheEntry).key)
		c.stats.Evictions++
		c.Obs.Evict()
	}
}

// Len returns the current entry count.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
