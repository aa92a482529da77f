package exec

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
)

// joinCacheMaxEntries bounds the cache's entry count: a workload of
// never-repeating build filters leaves many small masks behind, and this
// many of them at most.
const joinCacheMaxEntries = 1024

// JoinCache keeps built join tables across the queries of one engine.
// Taster's plans sample the fact table and join the sample against whole
// dimension tables, so once a synopsis is reused a query's residual cost is
// the dimension-side build — over rows that cannot change until the table's
// next version. A build side is σ(base table) (buildSide), a pure
// function of its plan text and the table version it reads; the cache runs
// it once per such key and hands later queries the immutable joinTable
// together with the cost counters the build charged, which a hit replays so
// simulated cost does not move by a bit. A table is the version's own
// columns and key index (Table.KeyIndex) plus the build's survivor mask, so
// an entry holds the mask and the charge, and a key is admitted on its first
// sight: holding it costs no copy of any row.
//
// Invalidation is by construction, like planner.CacheKey: the key embeds
// the bound table@epoch, so an append makes the old entries unreachable
// and they fall off the LRU tail. Eviction is LRU under a byte bound, which
// counts what an entry keeps alive as well as what it holds: through its
// table an entry pins its version's key index and, on a multi-partition
// version, the whole-table column and width copies (pinnedBytes). Entries
// over one index share that charge, so it is paid once while any of them
// stays, and a version an append left behind is paid for until its last
// entry goes. The mutex covers lookup and insert only, never a build, so
// two queries racing a cold key both build and one table stays.
//
// A Context without a cache (nil) builds every join per run.
type JoinCache struct {
	mu       sync.Mutex
	maxBytes int64
	ll       *list.List // front = most recent
	byKey    map[string]*list.Element
	// bytes is what the resident entries hold and pin, the quantity
	// maxBytes bounds.
	bytes int64
	// pins is, per key index the resident entries read, how many of them
	// read it and what it pins, charged to bytes once.
	pins map[*storage.KeyIndex]*pin

	// Obs counts hits, misses, admissions, evictions and resident bytes into
	// the engine-wide metrics registry, the only record of them. Write-only
	// and nil-safe: the cache never reads it back.
	Obs *obs.JoinCacheObs
}

// buildCharge is the cost a build side charged to RunStats: the three
// counters its scan, its filter and the drain move. Integer sums, so
// replaying them on a hit lands on the same totals in any order.
type buildCharge struct {
	baseBytes, cpuTuples, shuffleBytes int64
}

// chargeSince is the charge accumulated in s since the before snapshot.
func chargeSince(s *RunStats, before RunStats) buildCharge {
	return buildCharge{
		baseBytes:    s.BaseBytes - before.BaseBytes,
		cpuTuples:    s.CPUTuples - before.CPUTuples,
		shuffleBytes: s.ShuffleBytes - before.ShuffleBytes,
	}
}

func (c buildCharge) replay(s *RunStats) {
	s.BaseBytes += c.baseBytes
	s.CPUTuples += c.cpuTuples
	s.ShuffleBytes += c.shuffleBytes
}

// joinCacheEntry is one key's resident table.
type joinCacheEntry struct {
	key string
	// source is the table version the build side reads. The key names it by
	// name@epoch, but Catalog.Register can put a different table under a name
	// at the same epoch, so a hit also demands pointer identity.
	source *storage.Table
	table  *joinTable
	charge buildCharge
	bytes  int64 // the entry's own bytes; its pin is counted in pins
}

// pin is the version state the resident entries over one key index keep
// alive: how many entries read it and its pinnedBytes.
type pin struct {
	entries int
	bytes   int64
}

// NewJoinCache returns a cache whose entries hold at most maxBytes.
func NewJoinCache(maxBytes int64) *JoinCache {
	return &JoinCache{maxBytes: maxBytes, ll: list.New(), byKey: make(map[string]*list.Element),
		pins: make(map[*storage.KeyIndex]*pin)}
}

// joinCacheKey derives the cache identity of a join's build side over the
// table source: its plan text (the scan and any filter), the table version
// and the build key columns. Nothing else goes in: the table's layout
// follows from the build key types, and the scan charge from the plan and
// the table version.
func joinCacheKey(n plan.Node, source *storage.Table, rightKeys []string) string {
	return fmt.Sprintf("%s%s@%d K[%s]", plan.Format(n), source.Name, source.Epoch(), strings.Join(rightKeys, ","))
}

// lookup returns the resident entry for the key, or nil on a miss.
func (c *JoinCache) lookup(key string, source *storage.Table) *joinCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if found && el.Value.(*joinCacheEntry).source != source {
		// A replaced table under an unchanged name@epoch: the old entry can
		// never be right again.
		c.removeLocked(el)
		found = false
	}
	if !found {
		c.Obs.Miss()
		return nil
	}
	c.ll.MoveToFront(el)
	c.Obs.Hit()
	return el.Value.(*joinCacheEntry)
}

// insert makes a built table resident under the key. When a racing build
// got there first its table stays and this one remains the caller's alone.
func (c *JoinCache) insert(key string, source *storage.Table, t *joinTable, charge buildCharge) {
	size := int64(len(key)) + t.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pins[t.idx]
	if p == nil {
		// Once per index: sizing string columns is a pass over their rows.
		p = &pin{bytes: pinnedBytes(source, t)}
	}
	if size+p.bytes > c.maxBytes {
		return
	}
	if el, found := c.byKey[key]; found {
		if el.Value.(*joinCacheEntry).source == source {
			return
		}
		c.removeLocked(el) // another version's entry, so never p's last
	}
	c.byKey[key] = c.ll.PushFront(&joinCacheEntry{key: key, source: source, table: t, charge: charge, bytes: size})
	c.bytes += size
	if t.idx != nil {
		if p.entries == 0 {
			c.pins[t.idx] = p
			c.bytes += p.bytes
		}
		p.entries++
	}
	c.Obs.Admit()
	c.trimLocked()
	c.Obs.Resident(c.bytes)
}

// trimLocked evicts from the LRU tail until both bounds hold.
func (c *JoinCache) trimLocked() {
	for c.bytes > c.maxBytes || c.ll.Len() > joinCacheMaxEntries {
		c.removeLocked(c.ll.Back())
	}
}

func (c *JoinCache) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*joinCacheEntry)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
	if x := e.table.idx; x != nil {
		p := c.pins[x]
		if p.entries--; p.entries == 0 {
			delete(c.pins, x)
			c.bytes -= p.bytes
		}
	}
	c.Obs.Evict()
	c.Obs.Resident(c.bytes)
}

// bytes is what the table holds beside the table version it reads: the
// mask and the column list. The version's columns, widths and key index are
// the version's own, shared by every build side over it (pinnedBytes).
func (t *joinTable) bytes() int64 {
	return int64(len(t.mask))*8 + int64(len(t.vecs))*8
}

// pinnedBytes is what t keeps alive of source beyond its partitions: the key
// index, and on a multi-partition version the whole-table columns and row
// widths Column and RowWidths concatenated (a one-partition version's are
// its partition's own arrays). String payloads are counted in full although
// the copies share them with the partitions, and two indexes over one
// version each count its copies, so the bound errs towards holding less.
func pinnedBytes(source *storage.Table, t *joinTable) int64 {
	if t.idx == nil {
		return 0
	}
	n := t.idx.Bytes()
	if source.Partitions() > 1 {
		n += int64(len(t.width)) * 4
		for _, v := range t.vecs {
			n += v.Bytes() + int64(len(v.Code))*4
		}
	}
	return n
}

// runBuild produces the table of one spine join's build side (PipelineOp's
// run): it drains the build side into the table of its survivors
// (drainBuild); with a cache on the context it first asks the cache, and on
// a hit never drains it: the entry's charge is replayed into the run's
// counters and, under tracing, the build side is marked cached with its
// survivor count. A miss builds and admits.
func runBuild(js *pipelineJoinState, ctx *Context) *joinTable {
	node, source := js.node, js.build.table.leaf
	var key string
	if ctx.Joins != nil {
		key = joinCacheKey(node.Right, source, node.RightKeys)
		if hit := ctx.Joins.lookup(key, source); hit != nil {
			hit.charge.replay(ctx.Stats)
			js.build.markCached(int64(hit.table.rows))
			return hit.table
		}
	}
	before := *ctx.Stats
	t := drainBuild(js.build, js.spec.rightKeys, ctx)
	if ctx.Joins != nil {
		ctx.Joins.insert(key, source, t, chargeSince(ctx.Stats, before))
	}
	return t
}
