package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Partition is one horizontal slice of a table version: its own column
// vectors and a lazily computed zone map. Partitions are immutable once
// published, so they are shared structurally between table versions —
// Append clones only the tail partition it extends.
//
//taster:immutable
type Partition struct {
	cols []*Vector
	rows int

	zoneOnce sync.Once
	zone     *ZoneMap

	bytesOnce sync.Once
	bytes     int64

	widthOnce sync.Once
	widths    []int32
}

// Bytes returns the partition's payload size, computed on first call and
// cached (string columns make a fresh computation O(rows), and cost
// accounting asks per query).
//
//taster:mutator sync.Once-guarded lazy cache: the single winning writer publishes the size via Once's happens-before edge
func (p *Partition) Bytes() int64 {
	p.bytesOnce.Do(func() {
		var n int64
		for _, c := range p.cols {
			n += c.Bytes()
		}
		p.bytes = n
	})
	return p.bytes
}

// rowWidths returns every row's payload width in bytes — 8 per int64 or
// float64, 1 per bool, len+16 per string, summed over all columns — computed
// on first call and cached like Bytes. Scans hand slices of it out as
// Batch.Width, so what a row costs to exchange is read, not recomputed from
// its strings, however few of its columns a scan projects. The partition is
// immutable, so the array is carried across every table version that shares
// it. Σ rowWidths = Bytes, exactly: both are the same integer sum in a
// different order.
//
//taster:mutator sync.Once-guarded lazy cache: the single winning writer publishes the array via Once's happens-before edge
func (p *Partition) rowWidths() []int32 {
	p.widthOnce.Do(func() {
		var fixed int32
		var strs []*Vector
		for _, c := range p.cols {
			switch c.Typ {
			case Int64, Float64:
				fixed += 8
			case Bool:
				fixed++
			case String:
				fixed += 16 // string header overhead
				strs = append(strs, c)
			}
		}
		w := make([]int32, p.rows)
		for i := range w {
			w[i] = fixed
		}
		for _, c := range strs {
			for i, s := range c.Str {
				w[i] += int32(len(s))
			}
		}
		p.widths = w
	})
	return p.widths
}

// Table is an immutable columnar table *version*, horizontally divided into
// fixed-size partitions (the analogue of the paper's Spark/HDFS partitions
// and of Tuple Bubbles' fixed-size bubbles). Statistics are computed lazily
// on first access, as the paper's engine computes dataset statistics
// "on-the-fly during the first access to any table" — per column and per
// part, so a version counts only what a plan reads.
//
// Data evolution never mutates a Table in place: Append produces a new
// version carrying a bumped epoch counter, and the Catalog swaps versions
// atomically. Full partitions are shared between versions; only the tail
// partition receiving rows is cloned, so appends cost O(tail + delta) rather
// than O(table). Readers that resolved an older version keep scanning a
// frozen snapshot — the executor's morsel dispenser, zero-copy scans and
// statistics all stay race-free under concurrent ingestion.
//
//taster:immutable
type Table struct {
	Name     string
	schema   Schema
	parts    []*Partition
	offs     []int // offs[p] = first global row of partition p; len = parts+1
	partRows int   // max rows per partition; 0 = unbounded (monolithic)
	rows     int
	epoch    uint64 // monotonically increasing version counter, bumped by Append

	// dicts[i] is the dictionary new rows of string column i are coded under:
	// the one the tail partition carries, shared with every partition since
	// the last append that brought a new value. Nil for other types and for a
	// column past MaxDictSize, which stays uncoded from then on.
	dicts []*Dict

	colsOnce sync.Once
	colsView []*Vector // lazily concatenated whole-column view

	widthsOnce sync.Once
	widthsView []int32 // lazily concatenated whole-table row widths

	// keyIdx caches, per column set, the set's KeyIndex and GroupIDs, keyed
	// by the column positions.
	keyIdxMu sync.Mutex
	keyIdx   map[string]*lazyColIndexes

	// stats holds each column's statistics, both parts computed on demand
	// (ColumnGroups, ColumnMoments).
	stats []lazyColumnStats

	// groups caches GroupCount and MinGroupOf per multi-column set, keyed by
	// the names (groupShape).
	groupsMu sync.Mutex
	groups   map[string]groupShape
}

// NewTable builds a table from fully populated column vectors. All vectors
// must have identical lengths matching the schema. The partitions argument
// is a target partition *count* (legacy interface): rows are divided into
// ceil(rows/partitions)-row chunks, which also fixes the table's per-
// partition row capacity for subsequent appends.
func NewTable(name string, schema Schema, cols []*Vector, partitions int) (*Table, error) {
	if err := checkCols(name, schema, cols); err != nil {
		return nil, err
	}
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
	}
	if partitions < 1 {
		partitions = 1
	}
	per := 0
	if rows > 0 && partitions > 1 {
		per = (rows + partitions - 1) / partitions
	}
	return newTableChunked(name, schema, cols, rows, per), nil
}

func checkCols(name string, schema Schema, cols []*Vector) error {
	if len(cols) != len(schema) {
		return fmt.Errorf("storage: table %s: %d columns for %d schema entries", name, len(cols), len(schema))
	}
	rows := -1
	for i, c := range cols {
		if c.Typ != schema[i].Typ {
			return fmt.Errorf("storage: table %s column %s: vector type %s != schema type %s",
				name, schema[i].Name, c.Typ, schema[i].Typ)
		}
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return fmt.Errorf("storage: table %s: ragged columns (%d vs %d rows)", name, c.Len(), rows)
		}
	}
	return nil
}

// newTableChunked slices monolithic columns into partitions of at most
// partRows rows (0 = single partition). Slicing is zero-copy; the monolithic
// vectors double as the whole-column view. This is where a table's string
// columns get their codes (codedColumns): once, over the whole column, so
// every partition shares one dictionary.
func newTableChunked(name string, schema Schema, cols []*Vector, rows, partRows int) *Table {
	cols, dicts := codedColumns(cols)
	t := &Table{Name: name, schema: schema, rows: rows, partRows: partRows, colsView: cols, dicts: dicts,
		stats: make([]lazyColumnStats, len(schema))}
	step := partRows
	if step <= 0 || step > rows {
		step = rows
	}
	if step == 0 { // empty table: one empty partition keeps scans trivial
		t.parts = []*Partition{{cols: cols}}
		t.offs = []int{0, 0}
		return t
	}
	for lo := 0; lo < rows; lo += step {
		hi := lo + step
		if hi > rows {
			hi = rows
		}
		pc := make([]*Vector, len(cols))
		for i, c := range cols {
			pc[i] = c.Slice(lo, hi)
		}
		t.parts = append(t.parts, &Partition{cols: pc, rows: hi - lo})
		t.offs = append(t.offs, lo)
	}
	t.offs = append(t.offs, rows)
	return t
}

// newTableFromParts assembles a table version directly from partitions
// (used by Append and the codec). Partitions are adopted, not copied.
func newTableFromParts(name string, schema Schema, parts []*Partition, dicts []*Dict, partRows int, epoch uint64) *Table {
	t := &Table{Name: name, schema: schema, parts: parts, dicts: dicts, partRows: partRows, epoch: epoch,
		stats: make([]lazyColumnStats, len(schema))}
	t.offs = make([]int, 0, len(parts)+1)
	for _, p := range parts {
		t.offs = append(t.offs, t.rows)
		t.rows += p.rows
	}
	t.offs = append(t.offs, t.rows)
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Partitions returns the partition count.
func (t *Table) Partitions() int { return len(t.parts) }

// Epoch returns the table's version counter: 0 for a freshly built table,
// incremented by every Append. Synopsis freshness tracking records the epoch
// a synopsis was built at and compares it against the current one.
func (t *Table) Epoch() uint64 { return t.epoch }

// Append returns a new table version containing this table's rows followed
// by delta's rows, with the epoch incremented. The receiver is left fully
// intact (readers holding it keep a consistent snapshot). Full partitions
// are shared structurally with the old version; only the tail partition
// (if it has room) is cloned and extended, and overflow rows open fresh
// partitions — so an append costs O(tail + delta), not O(table).
// delta must have an identical schema.
//
// String columns: the delta alone is coded against the column's dictionary
// (translated from its own codes when it has them). While it brings no new
// value the new version shares the old one's dictionary; when it does, the
// new version's dictionary is an extended copy — old codes keep their
// meaning in it, so the tail clone copies its codes and takes the new
// dictionary without re-hashing a row — and the shared partitions keep the
// old one. A column the delta pushes past MaxDictSize, or one that never was
// coded, takes the delta's rows uncoded.
//
// The new version builds its own indexes, but starts from this one's
// numberings (GroupIDs): each it has built is extended over the delta on
// the new version's first use, not rebuilt over every row.
//
//taster:mutator construction: the cache write targets the freshly built version before it escapes, never the receiver
func (t *Table) Append(delta *Table) (*Table, error) {
	if !t.schema.Equal(delta.schema) {
		return nil, fmt.Errorf("storage: append to %s: schema mismatch", t.Name)
	}
	epoch := t.epoch + 1
	parts := make([]*Partition, len(t.parts), len(t.parts)+1)
	copy(parts, t.parts)

	dRows := delta.rows
	dCols := make([]*Vector, len(t.schema))
	dicts := make([]*Dict, len(t.schema))
	for i := range dCols {
		dCols[i] = delta.Column(i)
		if t.schema[i].Typ == String {
			dCols[i], dicts[i] = recoded(t.dicts[i], dCols[i])
		}
	}
	taken := 0

	// Extend the tail partition up to capacity, cloning its vectors so the
	// old version's snapshot stays frozen.
	if n := len(parts); n > 0 && dRows > 0 {
		tail := parts[n-1]
		room := dRows
		if t.partRows > 0 {
			room = t.partRows - tail.rows
		}
		if room > dRows {
			room = dRows
		}
		if room > 0 || tail.rows == 0 {
			if room < 0 {
				room = 0
			}
			take := room
			nc := make([]*Vector, len(tail.cols))
			for i, c := range tail.cols {
				nv := NewVector(c.Typ, c.Len()+take)
				if c.Dict != nil {
					nv.Code = make([]uint32, 0, c.Len()+take)
				}
				nv.Extend(c)
				if nv.Dict != nil && nv.Dict == t.dicts[i] {
					nv.Dict = dicts[i] // the same dictionary, or its extension
				}
				nv.Extend(dCols[i].Slice(0, take))
				if nv.Dict == nil {
					nv.Code = nil
				}
				nc[i] = nv
			}
			parts[n-1] = &Partition{cols: nc, rows: tail.rows + take}
			taken = take
		}
	}

	// Overflow rows open fresh partitions of partRows each.
	step := t.partRows
	if step <= 0 {
		step = dRows - taken
	}
	for lo := taken; lo < dRows; lo += step {
		hi := lo + step
		if hi > dRows {
			hi = dRows
		}
		pc := make([]*Vector, len(dCols))
		for i, c := range dCols {
			nv := NewVector(c.Typ, hi-lo)
			nv.Extend(c.Slice(lo, hi))
			pc[i] = nv
		}
		parts = append(parts, &Partition{cols: pc, rows: hi - lo})
	}

	nt := newTableFromParts(t.Name, t.schema, parts, dicts, t.partRows, epoch)
	nt.keyIdx = t.numberings()
	return nt, nil
}

// Repartition returns a version of the table re-chunked into partitions of
// at most partRows rows (0 = one unbounded partition). Row contents, order
// and the table epoch are preserved.
//
//taster:mutator construction: the epoch write targets the freshly built table before it escapes, never the receiver
func (t *Table) Repartition(partRows int) *Table {
	if partRows < 0 {
		partRows = 0
	}
	cols := make([]*Vector, len(t.schema))
	for i := range cols {
		cols[i] = t.Column(i)
	}
	nt := newTableChunked(t.Name, t.schema, cols, t.rows, partRows)
	nt.epoch = t.epoch
	return nt
}

// Column returns the full column vector at position i. For multi-partition
// tables the whole-column view is concatenated lazily on first use and
// cached, every column at once, and lives as long as the version. Scans
// never use this view, but the engine reads through it: every join table
// gathers its build rows from it (exec.drainBuild), and a dense KeyIndex
// keeps its key column from it, so a multi-partition version pays the
// concatenation on its first join. Row-at-a-time consumers (workload
// resampling) read it too.
//
//taster:mutator sync.Once-guarded lazy cache: the single winning writer publishes via Once's happens-before edge, readers only ever see nil-then-frozen
func (t *Table) Column(i int) *Vector {
	t.colsOnce.Do(func() {
		if t.colsView != nil {
			return
		}
		if len(t.parts) == 1 {
			t.colsView = t.parts[0].cols
			return
		}
		view := make([]*Vector, len(t.schema))
		for c := range view {
			nv := NewVector(t.schema[c].Typ, t.rows)
			for _, p := range t.parts {
				nv.Extend(p.cols[c])
			}
			view[c] = nv
		}
		t.colsView = view
	})
	return t.colsView[i]
}

// RowWidths returns every row's payload width in table row order — the
// partitions' cached widths (Partition.rowWidths) end to end: the partition's
// own array for a one-partition version, otherwise concatenated on first call
// and cached like Column. A join reads a build row's width here by its row
// number.
//
//taster:mutator sync.Once-guarded lazy cache: the single winning writer publishes via Once's happens-before edge, readers only ever see nil-then-frozen
func (t *Table) RowWidths() []int32 {
	t.widthsOnce.Do(func() {
		if len(t.parts) == 1 {
			t.widthsView = t.parts[0].rowWidths()
			return
		}
		w := make([]int32, 0, t.rows)
		for _, p := range t.parts {
			w = append(w, p.rowWidths()...)
		}
		t.widthsView = w
	})
	return t.widthsView
}

// lazyColIndexes is what a table version indexes by one column set, each
// built once on first use. groups is written under keyIdxMu too, so Append
// may read it from another goroutine. prev is, on a version made by Append,
// the set's numbering on the version appended to, when that one had built
// it: GroupIDs extends it over the delta (extendGroups) and drops it.
type lazyColIndexes struct {
	keyOnce sync.Once
	key     *KeyIndex

	groupOnce sync.Once
	groups    *GroupIDs
	prev      *GroupIDs
}

// numberings returns, for every column set this version has numbered, a
// fresh cache entry that holds the numbering as prev: what a version
// appended to this one starts its cache with.
func (t *Table) numberings() map[string]*lazyColIndexes {
	t.keyIdxMu.Lock()
	defer t.keyIdxMu.Unlock()
	var out map[string]*lazyColIndexes
	for key, e := range t.keyIdx {
		if e.groups != nil {
			if out == nil {
				out = make(map[string]*lazyColIndexes)
			}
			out[key] = &lazyColIndexes{prev: e.groups}
		}
	}
	return out
}

// colIndexes returns the cache entry of the columns at positions cols,
// publishing an empty one on first sight.
//
//taster:mutator lazy cache under keyIdxMu: an entry is published once per column set; what it holds is built once under its own sync.Once from the version's frozen rows
func (t *Table) colIndexes(cols []int) *lazyColIndexes {
	key := fmt.Sprint(cols)
	t.keyIdxMu.Lock()
	defer t.keyIdxMu.Unlock()
	e := t.keyIdx[key]
	if e == nil {
		if t.keyIdx == nil {
			t.keyIdx = make(map[string]*lazyColIndexes)
		}
		e = &lazyColIndexes{}
		t.keyIdx[key] = e
	}
	return e
}

// KeyIndex returns the index over every row of this version by its key over
// the columns at positions cols (newKeyIndex), built on first use and cached
// per column set: a version's rows never change, so every join whose build
// side reads it probes the one index, and a query's build side is a KeyMask
// over it. A key that is not dense is found through the set's GroupIDs, the
// one numbering of the set that the version holds. An appended version builds
// its own index, its numbering extended from the old version's; an old
// version keeps its index as long as something holds the old version.
func (t *Table) KeyIndex(cols []int) *KeyIndex {
	e := t.colIndexes(cols)
	e.keyOnce.Do(func() { e.key = newKeyIndex(t, cols) })
	return e.key
}

// GroupIDs is a table version's own numbering of its rows by a column set:
// row i is in group ID.I64[i], and group g's key values are row g of Keys,
// one vector per column. One GroupIndex over every row of the version finds
// the groups, so two rows share an id exactly when GROUP BY would put them
// in one group — floats by their IEEE bits (-0.0 and +0.0 apart, a NaN with
// the same payload only), strings by value whatever dictionary codes them.
// Ids are dense and in key order: g < h exactly when group g's key sorts
// before group h's under CompareKey, column by column, so a sink that folds
// by the ids emits its groups in key order by sorting ids. ID is an Int64
// column — 8 bytes a row — so a scan slices it beside the table's own
// columns with no copy. Shared by every query over the version, so frozen
// once built.
//
//taster:immutable
type GroupIDs struct {
	ID   *Vector
	Keys []*Vector
}

// Len returns the number of groups.
func (g *GroupIDs) Len() int {
	if len(g.Keys) == 0 {
		return 0
	}
	return g.Keys[0].Len()
}

// GroupIDs returns the numbering of this version's rows by the columns at
// positions cols (non-empty), built on first use and cached per column set
// beside the set's KeyIndex: a version's rows never change, so every
// aggregate grouping by the set folds by the one numbering. An appended
// version has its own, extended from the old version's numbering when that
// one was built (extendGroups); an old version keeps its own.
func (t *Table) GroupIDs(cols []int) *GroupIDs {
	e := t.colIndexes(cols)
	e.groupOnce.Do(func() {
		var g *GroupIDs
		if e.prev != nil {
			g = t.extendGroups(cols, e.prev)
		} else {
			g = t.numberGroups(cols)
		}
		t.keyIdxMu.Lock()
		e.groups, e.prev = g, nil
		t.keyIdxMu.Unlock()
	})
	return e.groups
}

// numberGroups numbers every row by the columns at cols: one GroupIndex
// pass, then the first-seen ids renumbered in key order.
func (t *Table) numberGroups(cols []int) *GroupIDs {
	ids := make([]int64, 0, t.rows)
	idx := t.resolveGroups(cols, 0, func(batch []int32, _ int) {
		for _, id := range batch {
			ids = append(ids, int64(id))
		}
	})
	seen, order := idx.KeyOrder()
	rank := make([]int64, len(order))
	for r, id := range order {
		rank[id] = int64(r)
	}
	for i, id := range ids {
		ids[i] = rank[id]
	}
	keys := make([]*Vector, len(seen))
	for c, k := range seen {
		keys[c] = NewVector(k.Typ, len(order))
		keys[c].AppendGather(k, order)
	}
	return &GroupIDs{ID: &Vector{Typ: Int64, I64: ids}, Keys: keys}
}

// extendGroups is numberGroups from prev, the numbering by the same columns
// of the version this one was appended to. That version's rows are this
// one's first prev.ID.Len() rows and keep their groups, so only the delta's
// rows are resolved. A delta key prev lacks takes its place in key order,
// and every old id moves up by the number of such keys below it: the same
// numbering numberGroups builds, for a pass over the old ids instead of a
// GroupIndex over every row.
func (t *Table) extendGroups(cols []int, prev *GroupIDs) *GroupIDs {
	old, olds := prev.ID.Len(), prev.Len()
	ids := make([]int64, old, t.rows)
	idx := t.resolveGroups(cols, old, func(batch []int32, _ int) {
		for _, id := range batch {
			ids = append(ids, int64(id))
		}
	})
	delta := idx.KeyColumns()
	// Delta group d's key is old key at[d], or, not found there, sorts just
	// before it; fresh lists the keys not found, in key order.
	at := make([]int, idx.Len())
	found := make([]bool, idx.Len())
	var fresh []int
	for d := range at {
		at[d] = sort.Search(olds, func(o int) bool { return compareKeyRows(prev.Keys, o, delta, d) >= 0 })
		if found[d] = at[d] < olds && compareKeyRows(prev.Keys, at[d], delta, d) == 0; !found[d] {
			fresh = append(fresh, d)
		}
	}
	slices.SortFunc(fresh, func(a, b int) int { return compareKeyRows(delta, a, delta, b) })

	// Merge: moved[o] is old group o's new id, final[d] delta group d's.
	moved := make([]int64, olds)
	final := make([]int64, len(at))
	keys := make([]*Vector, len(delta))
	for c, k := range delta {
		keys[c] = NewVector(k.Typ, olds+len(fresh))
	}
	for o, f := 0, 0; o < olds || f < len(fresh); {
		id := int64(o + f)
		if f < len(fresh) && (o == olds || at[fresh[f]] <= o) {
			final[fresh[f]] = id
			for c, k := range keys {
				k.AppendFrom(delta[c], fresh[f])
			}
			f++
		} else {
			moved[o] = id
			for c, k := range keys {
				k.AppendFrom(prev.Keys[c], o)
			}
			o++
		}
	}
	for d := range at {
		if found[d] {
			final[d] = moved[at[d]]
		}
	}
	if len(fresh) == 0 {
		copy(ids, prev.ID.I64)
	} else {
		for i, id := range prev.ID.I64 {
			ids[i] = moved[id]
		}
	}
	for i := old; i < len(ids); i++ {
		ids[i] = final[ids[i]]
	}
	return &GroupIDs{ID: &Vector{Typ: Int64, I64: ids}, Keys: keys}
}

// compareKeyRows compares row a of the key columns x with row b of the key
// columns y, column by column under CompareKey's order, reading each type's
// slice directly: no value is boxed.
func compareKeyRows(x []*Vector, a int, y []*Vector, b int) int {
	for c, xc := range x {
		var r int
		switch yc := y[c]; xc.Typ {
		case Int64:
			r = cmp.Compare(xc.I64[a], yc.I64[b])
		case Float64:
			r = cmp.Compare(floatOrder(xc.F64[a]), floatOrder(yc.F64[b]))
		case String:
			r = strings.Compare(xc.Str[a], yc.Str[b])
		default:
			r = CompareKey(xc.Get(a), yc.Get(b))
		}
		if r != 0 {
			return r
		}
	}
	return 0
}

// PartitionBytes returns the payload size of partition p — the scan charge
// for one partition, which is what zone-map pruning saves.
func (t *Table) PartitionBytes(p int) int64 { return t.parts[p].Bytes() }

// Bytes returns the total payload size of the table in bytes. This is the
// quantity storage quotas and scan costs are charged against.
func (t *Table) Bytes() int64 {
	var n int64
	for _, p := range t.parts {
		n += p.Bytes()
	}
	return n
}

// AvgRowBytes returns the average row width in bytes (≥1).
func (t *Table) AvgRowBytes() float64 {
	if t.rows == 0 {
		return 1
	}
	w := float64(t.Bytes()) / float64(t.rows)
	if w < 1 {
		w = 1
	}
	return w
}

// Scan returns batches of up to batchSize rows covering partition p.
// The returned batches share storage with the table (zero copy).
func (t *Table) Scan(p, batchSize int) []*Batch {
	c := t.NewCursor(batchSize, nil, nil, nil)
	c.Seek(t.offs[p], t.offs[p+1], nil)
	var out []*Batch
	for b := new(Batch); c.Next(b); b = new(Batch) {
		out = append(out, b)
	}
	return out
}

// Cursor reads a table's rows in batches of zero-copy views: rows [lo, hi)
// on the global row grid, of the partitions a survivor mask leaves, cut at
// every partition boundary and every size rows from where the range enters
// a partition, narrowed to some of the columns. Its Next re-points a batch
// the caller owns, with no allocation once that batch's views exist, so a
// batch it fills is valid until the caller asks again. The morsel-driven
// executor reads every leaf through one: morsel boundaries are defined on
// global row indices, independent of the physical partition layout, which
// is what keeps results byte-identical across any PartitionRows setting;
// rows of pruned partitions are skipped without being read; and a batch's
// Width is the full row's whatever the projection.
type Cursor struct {
	t      *Table
	size   int
	schema Schema
	cols   []int
	ids    *Vector
	keep   []bool
	p      int // the partition the next batch comes from
	at, hi int // the next row to read and the range's end, on the global grid
}

// NewCursor returns a cursor over t whose batches hold up to size rows of
// the columns at positions cols, under schema (nil cols: every column, under
// t.Schema()), and after them, when ids is not nil, the same rows of ids, a
// column over t's rows (a numbering's group ids). It reads nothing until
// Seek.
func (t *Table) NewCursor(size int, schema Schema, cols []int, ids *Vector) *Cursor {
	if cols == nil {
		schema, cols = t.schema, make([]int, len(t.schema))
		for i := range cols {
			cols[i] = i
		}
	}
	return &Cursor{t: t, size: size, schema: schema, cols: cols, ids: ids}
}

// Seek points the cursor at rows [lo, hi) of the partitions where keep[p]
// is true (nil keep: all).
func (c *Cursor) Seek(lo, hi int, keep []bool) {
	c.at, c.hi, c.keep, c.p = max(lo, 0), min(hi, c.t.rows), keep, 0
}

// Next re-points b at the next batch, reusing b's vector slice and vectors,
// and reports whether there was one. b's Sel and WidthSum are cleared and
// Start is set to the table row of its first row.
func (c *Cursor) Next(b *Batch) bool {
	t := c.t
	for ; c.at < c.hi && c.p < len(t.parts); c.p++ {
		plo, phi := t.offs[c.p], t.offs[c.p+1]
		if plo >= c.hi {
			break
		}
		if phi <= c.at || (c.keep != nil && !c.keep[c.p]) {
			continue
		}
		part := t.parts[c.p]
		start := max(c.at, plo) - plo
		end := min(start+c.size, min(c.hi, phi)-plo)
		c.at = plo + end
		b.Schema, b.Width, b.Start, b.Sel, b.WidthSum = c.schema, part.rowWidths()[start:end], plo+start, nil, 0
		n := len(c.cols)
		if c.ids != nil {
			n++
		}
		if cap(b.Vecs) < n {
			b.Vecs = make([]*Vector, n)
		}
		b.Vecs = b.Vecs[:n]
		for i := range b.Vecs {
			if b.Vecs[i] == nil {
				b.Vecs[i] = new(Vector)
			}
		}
		for i, col := range c.cols {
			b.Vecs[i].view(part.cols[col], start, end)
		}
		if c.ids != nil {
			b.Vecs[n-1].view(c.ids, plo+start, plo+end)
		}
		return true
	}
	return false
}

// Gather returns every column's values at the table rows rows, which must
// ascend and lie in [0, NumRows), each vector allocated once at len(rows):
// the one copy a sample makes of the rows it drew (synopses.GatherSample).
//
// A string column keeps the codes of its dictionary D when every partition
// the row span [rows[0], through) overlaps is coded under D, and is gathered
// uncoded otherwise, for NewTable to code afresh; an empty gather keeps no
// codes. through ends the rows a sampler was offered after its first draw,
// so the rule is that of copying the drawn rows batch by batch through
// Vector.AppendGather as the batches are offered, drawn rows or not: the
// codes hold until a batch under another dictionary, or none, arrives. The
// two agree because a dictionary's partitions are contiguous in row order —
// Append only ever moves the tail on to a new dictionary, or to none.
func (t *Table) Gather(rows []int32, through int) ([]*Vector, error) {
	for k, r := range rows {
		if r < 0 || int(r) >= t.rows || k > 0 && r < rows[k-1] {
			return nil, fmt.Errorf("storage: gather %s: row %d at %d is out of order or past %d rows", t.Name, r, k, t.rows)
		}
	}
	if n := len(rows); n > 0 && (through <= int(rows[n-1]) || through > t.rows) {
		return nil, fmt.Errorf("storage: gather %s: span end %d outside (%d, %d]", t.Name, through, rows[n-1], t.rows)
	}
	var runs []gatherRun
	for k := 0; k < len(rows); {
		p := sort.Search(len(t.parts), func(p int) bool { return t.offs[p+1] > int(rows[k]) })
		hi := k
		for hi < len(rows) && int(rows[hi]) < t.offs[p+1] {
			hi++
		}
		runs = append(runs, gatherRun{p, k, hi})
		k = hi
	}
	cols := make([]*Vector, len(t.schema))
	for c, col := range t.schema {
		v := &Vector{Typ: col.Typ}
		switch col.Typ {
		case Int64:
			v.I64 = gatherRuns(t, runs, rows, func(p *Partition) []int64 { return p.cols[c].I64 })
		case Float64:
			v.F64 = gatherRuns(t, runs, rows, func(p *Partition) []float64 { return p.cols[c].F64 })
		case Bool:
			v.B = gatherRuns(t, runs, rows, func(p *Partition) []bool { return p.cols[c].B })
		case String:
			v.Str = gatherRuns(t, runs, rows, func(p *Partition) []string { return p.cols[c].Str })
			if d := t.spanDict(c, rows, through); d != nil {
				v.Code, v.Dict = gatherRuns(t, runs, rows, func(p *Partition) []uint32 { return p.cols[c].Code }), d
			}
		}
		cols[c] = v
	}
	return cols, nil
}

// gatherRun is rows[lo:hi] of a Gather, all in partition part.
type gatherRun struct{ part, lo, hi int }

// gatherRuns is one column of a Gather: the values col reads from each run's
// partition at its rows, in one array of len(rows).
func gatherRuns[T any](t *Table, runs []gatherRun, rows []int32, col func(*Partition) []T) []T {
	out := make([]T, len(rows))
	for _, r := range runs {
		src, base := col(t.parts[r.part]), int32(t.offs[r.part])
		for k, at := range rows[r.lo:r.hi] {
			out[r.lo+k] = src[at-base]
		}
	}
	return out
}

// spanDict returns the dictionary every partition overlapping the rows
// [rows[0], through) codes column c under, or nil when they do not share one
// (or there are no rows).
func (t *Table) spanDict(c int, rows []int32, through int) *Dict {
	if len(rows) == 0 {
		return nil
	}
	var d *Dict
	for p, part := range t.parts {
		if t.offs[p+1] <= int(rows[0]) || t.offs[p] >= through {
			continue
		}
		pd := part.cols[c].Dict
		if pd == nil || d != nil && pd != d {
			return nil
		}
		d = pd
	}
	return d
}

// Builder accumulates rows for a new table.
type Builder struct {
	name   string
	schema Schema
	cols   []*Vector
	err    error // the first row AddRow refused
}

// NewBuilder returns a Builder for the schema.
func NewBuilder(name string, schema Schema) *Builder {
	cols := make([]*Vector, len(schema))
	for i, c := range schema {
		cols[i] = NewVector(c.Typ, 0)
	}
	return &Builder{name: name, schema: schema, cols: cols}
}

// AddRow appends one row; values must match the schema order and types. A
// row that does not is refused whole, and the first refusal is the error
// TryBuild returns (Build panics with it).
func (b *Builder) AddRow(vals ...Value) {
	if err := b.checkRow(vals); err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	for i, v := range vals {
		b.cols[i].Append(v)
	}
}

func (b *Builder) checkRow(vals []Value) error {
	if len(vals) != len(b.cols) {
		return fmt.Errorf("storage: AddRow: %d values for %d columns", len(vals), len(b.cols))
	}
	for i, v := range vals {
		if v.Typ != b.schema[i].Typ {
			return fmt.Errorf("storage: AddRow: %s value for %s column %q", v.Typ, b.schema[i].Typ, b.schema[i].Name)
		}
	}
	return nil
}

// Int appends an int64 to column i (fast path for generators).
func (b *Builder) Int(i int, v int64) { b.cols[i].I64 = append(b.cols[i].I64, v) }

// Float appends a float64 to column i.
func (b *Builder) Float(i int, v float64) { b.cols[i].F64 = append(b.cols[i].F64, v) }

// Str appends a string to column i. A column that had been taking coded rows
// through CopyFrom goes uncoded: a bare string has no code.
func (b *Builder) Str(i int, v string) {
	c := b.cols[i]
	if c.Dict != nil {
		c.dropCodes()
	}
	c.Str = append(c.Str, v)
}

// Bool appends a bool to column i.
func (b *Builder) Bool(i int, v bool) { b.cols[i].B = append(b.cols[i].B, v) }

// CopyFrom appends the value at src[row] onto column i (same type). The
// first row a string column takes from a coded source makes it coded, and
// its codes get the room its strings have (Grow).
func (b *Builder) CopyFrom(i int, src *Vector, row int) {
	c := b.cols[i]
	if src.Dict != nil && len(c.Str) == 0 {
		c.Code = slices.Grow(c.Code[:0], cap(c.Str))
	}
	c.AppendFrom(src, row)
}

// Grow reserves room for n more rows in every column, so the next n rows
// move no column however they arrive: a loader that knows its row count
// calls it before its fill loop, as strings.Builder.Grow before writes. A
// string column that CopyFrom fills from a coded source reserves its codes
// too. Grow panics if n is negative.
func (b *Builder) Grow(n int) {
	if n < 0 {
		panic("storage: Builder.Grow: negative count")
	}
	for _, c := range b.cols {
		switch c.Typ {
		case Int64:
			c.I64 = slices.Grow(c.I64, n)
		case Float64:
			c.F64 = slices.Grow(c.F64, n)
		case String:
			c.Str = slices.Grow(c.Str, n)
			if c.Dict != nil {
				c.Code = slices.Grow(c.Code, n)
			}
		case Bool:
			c.B = slices.Grow(c.B, n)
		}
	}
}

// Build finalizes the table with the given partition count. It panics on a
// malformed builder (a refused row, ragged columns); entry points fed by user
// code should use TryBuild instead.
func (b *Builder) Build(partitions int) *Table {
	t, err := b.TryBuild(partitions)
	if err != nil {
		panic(err)
	}
	return t
}

// TryBuild finalizes the table, returning the first row AddRow refused, or
// an error for ragged columns — an easy mistake with the per-column
// Int/Float/Str fast paths.
func (b *Builder) TryBuild(partitions int) (*Table, error) {
	if b.err != nil {
		return nil, b.err
	}
	return NewTable(b.name, b.schema, b.cols, partitions)
}

// Catalog is a concurrency-safe registry of base tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// appendLocks holds one mutex per table name, serializing appenders of
	// the same table so the read-copy-swap in Append composes, while (a)
	// the tail-partition clone runs outside mu — readers resolving tables
	// never block on an in-flight append — and (b) unrelated tables ingest
	// in parallel.
	appendMu    sync.Mutex
	appendLocks map[string]*sync.Mutex
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table), appendLocks: make(map[string]*sync.Mutex)}
}

// appendLock returns the per-table append mutex, creating it on first use.
func (c *Catalog) appendLock(name string) *sync.Mutex {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	l, ok := c.appendLocks[name]
	if !ok {
		l = &sync.Mutex{}
		c.appendLocks[name] = l
	}
	return l
}

// Register adds or replaces a table.
func (c *Catalog) Register(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
}

// Repartition re-chunks every registered table into partitions of at most
// partRows rows. Engines call it once at open to apply Config.PartitionRows.
func (c *Catalog) Repartition(partRows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, t := range c.tables {
		c.tables[n] = t.Repartition(partRows)
	}
}

// Append atomically replaces the named table with a new version extended by
// delta's rows (same schema), returning the new version. Appenders are
// serialized (concurrent appends compose), but the tail clone happens
// outside the registry lock: concurrent readers resolve tables without
// blocking and keep whichever version they already resolved.
func (c *Catalog) Append(name string, delta *Table) (*Table, error) {
	l := c.appendLock(name)
	l.Lock()
	defer l.Unlock()
	old, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	nt, err := old.Append(delta)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.tables[name] = nt
	c.mu.Unlock()
	return nt, nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// Names returns all registered table names, sorted. Callers iterate the
// catalog to repartition, checkpoint and report; sorting here means none
// of them can accidentally inherit map iteration order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the summed payload of all registered tables; storage
// budgets in the experiments are expressed as a fraction of this.
func (c *Catalog) TotalBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, t := range c.tables {
		n += t.Bytes()
	}
	return n
}
