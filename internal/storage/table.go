package storage

import (
	"fmt"
	"slices"
	"sort"
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
// cached; row-at-a-time consumers (workload resampling) pay the
// materialization once. Scans never use this view.
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
// columns y, column by column under CompareKey.
func compareKeyRows(x []*Vector, a int, y []*Vector, b int) int {
	for c := range x {
		if r := CompareKey(x[c].Get(a), y[c].Get(b)); r != 0 {
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
	part := t.parts[p]
	var out []*Batch
	for start := 0; start < part.rows; start += batchSize {
		end := start + batchSize
		if end > part.rows {
			end = part.rows
		}
		out = append(out, sliceBatch(t.schema, part, nil, t.offs[p]+start, start, end))
	}
	return out
}

// ScanRangePruned returns batches of up to batchSize rows covering global
// rows [lo, hi), restricted to partitions where keep[p] is true (nil keep =
// all) and to the columns at positions cols, whose schema the caller passes
// (nil cols = every column, under t.Schema()). Batches share storage with
// the table (zero copy) and never cross a partition boundary. The
// morsel-driven executor uses it to hand disjoint row ranges to workers:
// morsel boundaries are defined on global row indices, independent of the
// physical partition layout, which is what keeps results byte-identical
// across any PartitionRows setting. It passes the zone-map pruning verdict —
// rows of pruned partitions are skipped without being read — and the columns
// its spine reads; a batch's Width is the full row's whatever the projection.
func (t *Table) ScanRangePruned(lo, hi, batchSize int, keep []bool, schema Schema, cols []int) []*Batch {
	if lo < 0 {
		lo = 0
	}
	if hi > t.rows {
		hi = t.rows
	}
	var out []*Batch
	for p, part := range t.parts {
		plo, phi := t.offs[p], t.offs[p+1]
		if phi <= lo || plo >= hi {
			continue
		}
		if keep != nil && !keep[p] {
			continue
		}
		s := lo - plo
		if s < 0 {
			s = 0
		}
		e := hi - plo
		if e > part.rows {
			e = part.rows
		}
		for start := s; start < e; start += batchSize {
			end := start + batchSize
			if end > e {
				end = e
			}
			out = append(out, sliceBatch(schema, part, cols, plo+start, start, end))
		}
	}
	return out
}

// sliceBatch is the zero-copy view of part's rows [start, end) over the
// columns at positions cols (nil = all), carrying the rows' full widths and,
// as Start, tableRow: the caller's table row of the partition's row start,
// stored as given.
func sliceBatch(schema Schema, part *Partition, cols []int, tableRow, start, end int) *Batch {
	b := &Batch{Schema: schema, Width: part.rowWidths()[start:end], Start: tableRow}
	if cols == nil {
		b.Vecs = make([]*Vector, len(part.cols))
		for i, c := range part.cols {
			b.Vecs[i] = c.Slice(start, end)
		}
		return b
	}
	b.Vecs = make([]*Vector, len(cols))
	for i, c := range cols {
		b.Vecs[i] = part.cols[c].Slice(start, end)
	}
	return b
}

// ConcatTables concatenates same-schema tables in the given order into one
// table. The morsel-driven executor uses it to merge per-morsel sample
// materializations deterministically (parts are always passed in morsel
// index order). Every output column is allocated once, at the parts' total
// length. A string column keeps its codes when every part that has rows is
// coded under one dictionary; an empty part adds nothing, so it cannot
// drop them.
func ConcatTables(name string, parts []*Table, partitions int) (*Table, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("storage: ConcatTables %s: no parts", name)
	}
	schema := parts[0].schema
	total := 0
	for _, p := range parts {
		if len(p.schema) != len(schema) {
			return nil, fmt.Errorf("storage: ConcatTables %s: ragged part schemas", name)
		}
		total += p.rows
	}
	cols := make([]*Vector, len(schema))
	for i, c := range schema {
		cols[i] = NewVector(c.Typ, total)
		if c.Typ == String && oneDict(parts, i) {
			cols[i].Code = make([]uint32, 0, total)
		}
	}
	for _, p := range parts {
		if p.rows == 0 {
			continue
		}
		for i := range cols {
			cols[i].Extend(p.Column(i))
		}
	}
	return NewTable(name, schema, cols, partitions)
}

// oneDict reports whether column i of every part that has rows is coded
// under one dictionary, so that its codes carry through a concatenation.
func oneDict(parts []*Table, i int) bool {
	var d *Dict
	for _, p := range parts {
		if p.rows == 0 {
			continue
		}
		pd := p.Column(i).Dict
		if pd == nil || (d != nil && pd != d) {
			return false
		}
		d = pd
	}
	return d != nil
}

// Builder accumulates rows for a new table.
type Builder struct {
	name   string
	schema Schema
	cols   []*Vector
}

// NewBuilder returns a Builder for the schema.
func NewBuilder(name string, schema Schema) *Builder {
	cols := make([]*Vector, len(schema))
	for i, c := range schema {
		cols[i] = NewVector(c.Typ, 0)
	}
	return &Builder{name: name, schema: schema, cols: cols}
}

// AddRow appends one row; values must match the schema order and types.
func (b *Builder) AddRow(vals ...Value) {
	if len(vals) != len(b.cols) {
		panic(fmt.Sprintf("storage: AddRow: %d values for %d columns", len(vals), len(b.cols)))
	}
	for i, v := range vals {
		b.cols[i].Append(v)
	}
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

// CopyFrom appends the value at src[row] onto column i (same type).
func (b *Builder) CopyFrom(i int, src *Vector, row int) { b.cols[i].AppendFrom(src, row) }

// Gather appends src[rows[0]], src[rows[1]], ... onto column i (same type).
func (b *Builder) Gather(i int, src *Vector, rows []int32) { b.cols[i].AppendGather(src, rows) }

// Floats appends vs to column i.
func (b *Builder) Floats(i int, vs []float64) { b.cols[i].F64 = append(b.cols[i].F64, vs...) }

// Build finalizes the table with the given partition count. It panics on a
// malformed builder (ragged columns); entry points fed by user code should
// use TryBuild instead.
func (b *Builder) Build(partitions int) *Table {
	t, err := b.TryBuild(partitions)
	if err != nil {
		panic(err)
	}
	return t
}

// TryBuild finalizes the table, returning an error for ragged columns —
// an easy mistake with the per-column Int/Float/Str fast paths.
func (b *Builder) TryBuild(partitions int) (*Table, error) {
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
