package exec

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
)

// joinCacheMaxEntries bounds the cache's entry count, resident tables and
// seen-once keys together: a workload of never-repeating build filters
// leaves only key strings behind, and this many of them at most.
const joinCacheMaxEntries = 1024

// JoinCache keeps built join tables across the queries of one engine.
// Taster's plans sample the fact table and join the sample against whole
// dimension tables, so once a synopsis is reused a query's residual cost is
// the dimension-side build — over rows that cannot change until the table's
// next version. A build subtree made only of Scan and Filter nodes is
// a pure function of its plan text and the table versions bound into it;
// the cache runs it once per such key and hands later queries the immutable
// joinTable together with the cost counters the build charged, which a hit
// replays so simulated cost does not move by a bit.
//
// Invalidation is by construction, like planner.CacheKey: the key embeds
// every bound table@epoch, so an append makes the old entries unreachable
// and they fall off the LRU tail. A key is admitted on its second sight: a
// build seen once keeps using pool-recycled buffers, and only a repeat pays
// for a cache-owned copy. Eviction is LRU under a byte bound. The mutex
// covers lookup and insert only, never a build, so two queries racing a
// cold key both build and one copy stays.
//
// A Context without a cache (nil) builds every join per run.
type JoinCache struct {
	mu       sync.Mutex
	maxBytes int64
	ll       *list.List // front = most recent
	byKey    map[string]*list.Element
	stats    JoinCacheStats

	// Obs mirrors the counters into the engine-wide metrics registry.
	// Write-only and nil-safe; the cache itself only ever reads stats.
	Obs *obs.JoinCacheObs
}

// JoinCacheStats is the cache's cumulative accounting: lookups that found a
// resident table (Hits) or did not (Misses, first sights included), builds
// made resident (Admissions), resident tables dropped (Evictions), and the
// bytes resident now.
type JoinCacheStats struct {
	Hits       int64
	Misses     int64
	Admissions int64
	Evictions  int64
	Bytes      int64
}

// buildCharge is the cost a build subtree charged to RunStats: the four
// counters Scan and Filter operators move. Integer sums, so replaying
// them on a hit lands on the same totals in any order.
type buildCharge struct {
	baseBytes, warehouseBytes, cpuTuples, shuffleBytes int64
}

// chargeSince is the charge accumulated in s since the before snapshot.
func chargeSince(s *RunStats, before RunStats) buildCharge {
	return buildCharge{
		baseBytes:      s.BaseBytes - before.BaseBytes,
		warehouseBytes: s.WarehouseBytes - before.WarehouseBytes,
		cpuTuples:      s.CPUTuples - before.CPUTuples,
		shuffleBytes:   s.ShuffleBytes - before.ShuffleBytes,
	}
}

func (c buildCharge) replay(s *RunStats) {
	s.BaseBytes += c.baseBytes
	s.WarehouseBytes += c.warehouseBytes
	s.CPUTuples += c.cpuTuples
	s.ShuffleBytes += c.shuffleBytes
}

// joinCacheEntry is one key's state: seen once (table nil) or resident.
type joinCacheEntry struct {
	key string
	// tables are the table versions bound into the build subtree, in plan
	// order. The key names them by name@epoch, but Catalog.Register can put a
	// different table under a name at the same epoch, so a hit also demands
	// pointer identity.
	tables []*storage.Table
	table  *joinTable
	charge buildCharge
	bytes  int64
}

// NewJoinCache returns a cache holding at most maxBytes of built tables.
func NewJoinCache(maxBytes int64) *JoinCache {
	return &JoinCache{maxBytes: maxBytes, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// joinCacheKey derives the cache identity of a join's build side: the
// subtree's plan text, every bound table version and the build key columns.
// Nothing else goes in: the table's layout follows from the build key types,
// and the scan charge from the plan and the table versions. ok is false for
// a subtree that holds anything but Scan and Filter nodes: samplers draw
// from the query seed and synopsis scans read warehouse state.
func joinCacheKey(n plan.Node, rightKeys []string) (key string, tables []*storage.Table, ok bool) {
	ok = true
	plan.Walk(n, func(m plan.Node) {
		switch t := m.(type) {
		case *plan.Scan:
			tables = append(tables, t.Table)
		case *plan.Filter:
		default:
			ok = false
		}
	})
	if !ok {
		return "", nil, false
	}
	var sb strings.Builder
	sb.WriteString(plan.Format(n))
	for _, t := range tables {
		fmt.Fprintf(&sb, "%s@%d ", t.Name, t.Epoch())
	}
	fmt.Fprintf(&sb, "K[%s]", strings.Join(rightKeys, ","))
	return sb.String(), tables, true
}

// lookup returns the resident entry for the key, or nil on a miss together
// with whether the caller's build should be admitted (the key has been seen
// before). A first sight leaves the key behind so the next one admits.
func (c *JoinCache) lookup(key string, tables []*storage.Table) (hit *joinCacheEntry, admit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if found && !slices.Equal(el.Value.(*joinCacheEntry).tables, tables) {
		// A replaced table under an unchanged name@epoch: the old entry can
		// never be right again.
		c.removeLocked(el)
		found = false
	}
	if !found {
		c.miss()
		c.byKey[key] = c.ll.PushFront(&joinCacheEntry{key: key, tables: tables})
		c.trimLocked()
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*joinCacheEntry)
	if e.table == nil {
		c.miss()
		return nil, true
	}
	c.stats.Hits++
	c.Obs.Hit()
	return e, false
}

func (c *JoinCache) miss() {
	c.stats.Misses++
	c.Obs.Miss()
}

// Stats returns the cumulative counters (zero on a nil cache).
func (c *JoinCache) Stats() JoinCacheStats {
	if c == nil {
		return JoinCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// insert makes a built table resident under the key. When a racing build
// got there first its copy stays and this one remains the caller's alone.
func (c *JoinCache) insert(key string, tables []*storage.Table, t *joinTable, charge buildCharge) {
	size := t.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		return
	}
	el, found := c.byKey[key]
	if found {
		e := el.Value.(*joinCacheEntry)
		if e.table != nil && slices.Equal(e.tables, tables) {
			return
		}
		c.removeLocked(el)
	}
	c.byKey[key] = c.ll.PushFront(&joinCacheEntry{key: key, tables: tables, table: t, charge: charge, bytes: size})
	c.stats.Bytes += size
	c.stats.Admissions++
	c.Obs.Admit()
	c.trimLocked()
	c.Obs.Resident(c.stats.Bytes)
}

// trimLocked evicts from the LRU tail until both bounds hold.
func (c *JoinCache) trimLocked() {
	for c.stats.Bytes > c.maxBytes || c.ll.Len() > joinCacheMaxEntries {
		c.removeLocked(c.ll.Back())
	}
}

func (c *JoinCache) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*joinCacheEntry)
	delete(c.byKey, e.key)
	if e.table != nil {
		c.stats.Bytes -= e.bytes
		c.stats.Evictions++
		c.Obs.Evict()
		c.Obs.Resident(c.stats.Bytes)
	}
}

// bytes is the table's resident size: build rows, their width array, the
// code arrays of their coded string columns, the index arrays and the id
// map. String payloads are counted in full although the rows share them
// with the base table, so the bound errs towards holding less.
func (t *joinTable) bytes() int64 {
	n := t.rows.LiveWidth() + int64(len(t.rows.Width))*4
	for _, v := range t.rows.Vecs {
		if v.Dict != nil {
			n += int64(len(v.Code)) * 4
		}
	}
	return n + t.idx.Bytes()
}

// runBuild produces the hashed build side of one spine join
// (PipelineOp.Next). It opens and drains op, the compiled form of
// node.Right, and hashes the rows; with a cache on the context and a
// cacheable subtree it first asks the cache, and on a hit never opens op at
// all: the entry's charge is replayed into the run's counters and, under
// tracing, the subtree is marked cached. The caller still owns op and closes
// it either way.
func runBuild(node *plan.Join, op Operator, spec *joinSpec, ctx *Context) (*joinTable, error) {
	var key string
	var tables []*storage.Table
	admit := false
	if ctx.Joins != nil {
		var ok bool
		if key, tables, ok = joinCacheKey(node.Right, node.RightKeys); ok {
			var hit *joinCacheEntry
			if hit, admit = ctx.Joins.lookup(key, tables); hit != nil {
				hit.charge.replay(ctx.Stats)
				markCached(node.Right, int64(hit.table.rows.Len()), ctx)
				return hit.table, nil
			}
		}
	}
	before := *ctx.Stats
	if err := op.Open(); err != nil {
		return nil, err
	}
	rows, err := drainBuild(op, ctx, admit)
	if err != nil {
		return nil, err
	}
	t := buildJoinTable(spec, rows)
	if admit {
		t.shared = true
		ctx.Joins.insert(key, tables, t, chargeSince(ctx.Stats, before))
	}
	return t, nil
}
