package planner

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"github.com/tasterdb/taster/internal/obs"
)

// CacheKey derives the plan cache identity of a query under a tuning
// snapshot. The key is invalidation-by-construction: it embeds
//
//   - the query's shape (base tables, canonical join predicates, filter
//     conjuncts, output columns) — kept in declaration order, not sorted,
//     because the planner builds left-deep join trees in table order and
//     the seed derives from the chosen plan's text, so order-insensitive
//     keying could replay a differently-shaped (still correct, but
//     differently-sampled) plan;
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
	var sb strings.Builder
	sb.WriteString("T[")
	for i, t := range q.Tables {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s@%d", t.Name, t.Table.Epoch())
	}
	sb.WriteString("] J[")
	for i, j := range q.Joins {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(j.Canonical())
	}
	sb.WriteString("] F[")
	for i, c := range q.Filter {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(c.String())
	}
	fmt.Fprintf(&sb, "] O[%s", strings.Join(q.GroupBy, ","))
	for i, a := range q.Aggs {
		if i > 0 || len(q.GroupBy) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.Kind.String() + "(" + a.Col + ")as" + a.Alias)
	}
	fmt.Fprintf(&sb, "] ORD[%s", strings.Join(q.OrderBy, ","))
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

	// Obs counts hits, misses and evictions into the engine-wide metrics
	// registry, the only record of them. Write-only and nil-safe: the cache
	// never reads it back.
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
		c.Obs.Miss()
		return nil, false
	}
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
