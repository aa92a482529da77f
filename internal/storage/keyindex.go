package storage

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// KeyIndex finds rows by key. It is built once over the key columns of a
// table version (Table.KeyIndex) and returns, for any key, the ascending rows
// that carry it. A key that is one Int64 column over a span Table.DenseSpan
// admits is dense, found at its position key − min: when every key has one
// row — a dimension's primary key, a sketch-join payload — through rowOf, the
// key's row or −1 by position; when keys repeat, through rank, the key's id
// by position, laid out from the keys' counts. Every other key is numbered:
// the version's own GroupIDs over the key columns gives each distinct key an
// id in key order, found by binary search over the numbering's keys. A key's
// rows sit behind an offset array indexed by id as one contiguous run of
// matchRows; ids run in key order, so the rows of an interval of one Int64
// column's keys are one slice of matchRows (Range). Each layout has its own
// probe loops. It keeps no hash table. The build is serial, so the index is
// the same whatever runs beside it; once built it is immutable and safe for
// concurrent probes. A join's build side and a sketch-join's per-key table
// are both found through one, a probe batch at a time (Probe), and the rows
// a query's build side keeps are a KeyMask over it.
//
//taster:immutable
type KeyIndex struct {
	// parts is a unique dense index's key column, partition by partition,
	// and starts the table row each partition starts at, one past the last
	// partition's end at the end (nil for any other index): Mark reads a
	// row's key from them. They are the version's own, not copies.
	parts  []*Vector
	starts []int
	// min is a dense index's smallest key as a word: a key's position is its
	// word − min, which wraps a key below min to a position past every bound
	// (DenseSpan).
	min uint64
	// ids is a numbered index's numbering, its version's GroupIDs over the
	// key columns (nil for a dense one): row i's key has id ids.ID.I64[i],
	// and id g's key is row g of the key-ordered ids.Keys.
	ids *GroupIDs

	// rowOf is a unique dense index's only array: position k's row, or −1
	// when no row carries the key (nil for any other index).
	rowOf []int32
	// matchRows holds the runs of rows of a dense index whose keys repeat or
	// of a numbered one, back to back; the run of the key with id k is
	// matchRows[offs[k]:offs[k+1]]. Both are nil under rowOf.
	matchRows []int32
	offs      []int32
	// rank is a dense index's ids by position when its keys repeat (nil
	// otherwise): position p holds the id of the key min + p, or, when no
	// row carries that key, ^g, g being the number of keys below it.
	rank []int32
	keys int // distinct keys
}

const (
	// denseSpanFactor bounds a dense layout's array at this many entries per
	// row; sparser keys are numbered.
	denseSpanFactor = 4
	// denseSpanFloor admits any span below it whatever the row count. A
	// selective build-side filter leaves few rows scattered over the
	// dimension's whole key range, but the probe side is still the fact
	// table: zeroing a 256 KB array once costs less than hashing every probe
	// row (BenchmarkJoinProbe, dense150k vs sparse150k).
	denseSpanFloor = 1 << 16
)

// newKeyIndex indexes every row of t by its key over the columns at
// positions cols. A key that is one Int64 column whose span Table.DenseSpan
// admits is laid out by address: one pass tries the unique layout
// (buildUnique); at a key's second row the array it filled is cleared and
// becomes the keys' row counts by position (countDense, the count the
// column's group statistics take), from which the runs are laid out
// (buildRanked). Any other key is numbered by t's own GroupIDs, whose ids
// are laid out in runs.
func newKeyIndex(t *Table, cols []int) *KeyIndex {
	if len(cols) == 1 {
		if lo, n, ok := t.DenseSpan(cols[0]); ok {
			x, at := &KeyIndex{min: uint64(lo)}, make([]int32, n)
			if !x.buildUnique(t, cols[0], at) {
				clear(at)
				t.countDense(cols[0], x.min, at)
				x.buildRanked(t, cols[0], at)
			}
			return x
		}
	}
	x := &KeyIndex{ids: t.GroupIDs(cols)}
	x.keys = x.ids.Len() // every id is some row's
	x.buildRuns(x.ids.ID.I64, x.keys)
	return x
}

// DenseSpan is the one rule for laying a key out by its address, which the
// key index, the group statistics and a sketch-join's inline build share:
// Int64 column col is dense when its bounds (Bounds, the column's alone in
// each partition), lo to hi, span under denseSpanFactor× the rows or
// denseSpanFloor, in n ≤ MaxInt32 positions. No rows is an empty dense span.
func (t *Table) DenseSpan(col int) (lo int64, n int, ok bool) {
	if t.schema[col].Typ != Int64 {
		return 0, 0, false
	}
	mn, mx, has := t.Bounds(col)
	if !has {
		return 0, 0, true
	}
	// Two's-complement subtraction is exact for lo ≤ hi: the span of
	// MinInt64..MaxInt64 is 2^64−1, with no overflow.
	span := uint64(mx.I) - uint64(mn.I)
	if span >= uint64(t.rows)*denseSpanFactor && span >= denseSpanFloor || span >= math.MaxInt32 {
		return 0, 0, false
	}
	return mn.I, int(span) + 1, true
}

// buildUnique lays column col's keys out by position in rowOf and reports
// true, or gives up at a key's second row, leaving x as it was, and reports
// false.
func (x *KeyIndex) buildUnique(t *Table, col int, rowOf []int32) bool {
	fill(rowOf, -1)
	base := x.min
	parts := make([]*Vector, len(t.parts))
	for p, part := range t.parts {
		parts[p] = part.cols[col]
		r := int32(t.offs[p])
		for _, k := range parts[p].I64 {
			if rowOf[uint64(k)-base] >= 0 {
				return false
			}
			rowOf[uint64(k)-base] = r
			r++
		}
	}
	x.rowOf, x.keys, x.parts, x.starts = rowOf, t.rows, parts, t.offs
	return true
}

// fill sets every entry of s to v: one store, then the filled prefix
// doubled by copy, which moves the array a vector at a time.
func fill(s []int32, v int32) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// buildRanked lays column col's rows out in runs from counts, their keys'
// row counts by position. One walk over the positions turns counts into rank
// in place — a present key's id, a gap's ^ the number of keys below it —
// and appends each key's run end to the offsets; one pass over the
// partitions then fills each row into its key's run, in row order. offs[k+1]
// holds the start of k's run until the fill walks it to the run's end — the
// start of k+1's — so the array finishes as the exclusive offsets.
func (x *KeyIndex) buildRanked(t *Table, col int, counts []int32) {
	offs := make([]int32, 2, min(len(counts), t.rows)+2)
	for p, c := range counts {
		g := int32(len(offs) - 2)
		if c == 0 {
			counts[p] = ^g
			continue
		}
		counts[p] = g
		offs = append(offs, offs[len(offs)-1]+c)
	}
	rank, base := counts, x.min
	matchRows := make([]int32, t.rows)
	for p, part := range t.parts {
		r := int32(t.offs[p])
		for _, k := range part.cols[col].I64 {
			g := rank[uint64(k)-base]
			matchRows[offs[g+1]] = r
			offs[g+1]++
			r++
		}
	}
	x.keys = len(offs) - 2
	x.rank, x.offs, x.matchRows = rank, offs[:x.keys+1], matchRows
}

// buildRuns lays out the runs of rows whose keys have ids pos, each below
// nk, behind offs: ascending row order within every run falls out of
// the forward fill pass. Count id k into offs[k+2], then prefix-sum,
// leaving offs[k+1] at the start of k's run; the fill goes through
// offs[k+1], which walks it to the end of k's run — the start of k+1's — so
// the array finishes as the exclusive offsets with no cursor copy.
func (x *KeyIndex) buildRuns(pos []int64, nk int) {
	offs := make([]int32, nk+2)
	for _, k := range pos {
		offs[k+2]++
	}
	for k := 2; k < len(offs); k++ {
		offs[k] += offs[k-1]
	}
	x.matchRows = make([]int32, len(pos))
	for i, k := range pos {
		x.matchRows[offs[k+1]] = int32(i)
		offs[k+1]++
	}
	x.offs = offs[:nk+1]
}

// A KeyMask is a set of the rows a KeyIndex indexes — a join build side's
// survivors — kept in the index's own coordinates (NewMask, Mark): one bit
// per key position under a unique dense index, so a probe row the mask
// refuses costs one bit test before its row is loaded; one bit per row under
// any other, tested per candidate match.
// A nil mask is every row.
type KeyMask []uint64

func (m KeyMask) has(i uint64) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m KeyMask) set(i uint64) { m[i>>6] |= 1 << (i & 63) }

// NewMask returns an empty mask over x's rows: as many bits as the dense
// span under a unique dense index (UniqueDense), as rows otherwise.
func (x *KeyIndex) NewMask() KeyMask {
	n := len(x.matchRows)
	if x.UniqueDense() {
		n = len(x.rowOf)
	}
	return make(KeyMask, (n+63)/64)
}

// Mark adds rows to m: lo+sel[j] for every j of an ascending selection, or
// lo..lo+n−1 when sel is nil.
// A row's bit is its key − min under a unique dense index, the row
// otherwise.
func (x *KeyIndex) Mark(m KeyMask, lo int, sel []int32, n int) {
	if x.UniqueDense() {
		// Every join of the generated workloads: one subtraction per row,
		// its key read from the partition that holds it — a scanned batch's
		// rows all lie in one. A selection ascends, so only a row past the
		// current partition's end looks its partition up again.
		base := x.min
		if sel != nil {
			var keys []int64
			from, to := 0, 0
			for _, i := range sel {
				r := lo + int(i)
				if r >= to {
					keys, from, to = x.partOf(r)
				}
				m.set(uint64(keys[r-from]) - base)
			}
			return
		}
		for hi := lo + n; lo < hi; {
			keys, from, to := x.partOf(lo)
			to = min(to, hi)
			for _, k := range keys[lo-from : to-from] {
				m.set(uint64(k) - base)
			}
			lo = to
		}
		return
	}
	if sel == nil {
		for r := lo; r < lo+n; r++ {
			m.set(uint64(r))
		}
		return
	}
	for _, i := range sel {
		m.set(uint64(lo + int(i)))
	}
}

// partOf returns the key column of the partition that holds table row r
// under a unique dense index and the table rows [from, to) it holds.
func (x *KeyIndex) partOf(r int) (keys []int64, from, to int) {
	p := sort.SearchInts(x.starts, r+1) - 1
	return x.parts[p].I64, x.starts[p], x.starts[p+1]
}

// MarkRows adds rows to m, a mask by row (a numbered index's, or a table
// version's rows).
func (m KeyMask) MarkRows(rows []int32) {
	for _, r := range rows {
		m.set(uint64(r))
	}
}

// AppendRows appends to out, ascending, i − lo for every row i in
// [lo, lo+n) that m, a mask by row, holds: a word of the mask at a time,
// each of its set bits in turn.
func (m KeyMask) AppendRows(out []int32, lo, n int) []int32 {
	o, hi := len(out), lo+n
	out = grow(out, n)
	for w := lo >> 6; w<<6 < hi; w++ {
		word := m[w]
		if w<<6 < lo {
			word &= ^uint64(0) << (lo & 63)
		}
		if end := (w + 1) << 6; end > hi {
			word &= ^uint64(0) >> (end - hi)
		}
		for ; word != 0; word &= word - 1 {
			out[o] = int32(w<<6 + bits.TrailingZeros64(word) - lo)
			o++
		}
	}
	return out[:o]
}

// ProbePos is where a Probe resumes inside its probe batch: the live row Row,
// of whose matches the first Done have already been paired.
type ProbePos struct{ Row, Done int }

// Probe pairs the live rows of b from at on with the rows in mask (nil: every
// row) whose key equals theirs over cols — columns typed as the indexed ones.
// It appends each pair's live position (an index into b.Sel, or the row
// itself when b has no selection) to pos and its matching row to rows, in
// live-row order and ascending within a row, and stops once room pairs are
// out or the batch is: it returns fewer than room pairs only with Row ==
// b.Rows(). The position it returns is where the next call resumes —
// mid-run when a row's matches outrun room. A unique dense index, every join
// of the generated workloads, has one loop per mask shape (probeUnique,
// probeUniqueMasked); any other index has one loop that finds a row's run by
// its id, at its address or by search (probeRuns).
func (x *KeyIndex) Probe(b *Batch, cols []int, mask KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	switch {
	case x.rowOf != nil && mask == nil:
		return x.probeUnique(b.Vecs[cols[0]].I64, b.Sel, b.Rows(), at, room, pos, rows)
	case x.rowOf != nil:
		return x.probeUniqueMasked(b.Vecs[cols[0]].I64, b.Sel, b.Rows(), mask, at, room, pos, rows)
	}
	return x.probeRuns(b, cols, mask, at, room, pos, rows)
}

// probeUnique is Probe's loop over a unique dense index: one rowOf load per
// live row, a key below min wrapping to a k the bound refuses. A row pairs
// at most once, so no run is ever cut and Done stays 0: room is checked once
// per stretch of as many rows as there is room left, not per row.
func (x *KeyIndex) probeUnique(keys []int64, sel []int32, live int, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	rowOf, base := x.rowOf, x.min
	span := uint64(len(rowOf))
	for j := at.Row; j < live; {
		if o == len(pos) {
			return pos, rows, ProbePos{Row: j}
		}
		for end := min(live, j+len(pos)-o); j < end; j++ {
			i := j
			if sel != nil {
				i = int(sel[j])
			}
			k := uint64(keys[i]) - base
			if k >= span {
				continue
			}
			if r := rowOf[k]; r >= 0 {
				pos[o], rows[o] = int32(j), r
				o++
			}
		}
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// probeUniqueMasked is probeUnique under a mask by key: a key the mask
// refuses is skipped on its bit, before rowOf is read, and a key it holds
// has a row.
func (x *KeyIndex) probeUniqueMasked(keys []int64, sel []int32, live int, byKey KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	rowOf, base := x.rowOf, x.min
	span := uint64(len(rowOf))
	for j := at.Row; j < live; {
		if o == len(pos) {
			return pos, rows, ProbePos{Row: j}
		}
		for end := min(live, j+len(pos)-o); j < end; j++ {
			i := j
			if sel != nil {
				i = int(sel[j])
			}
			k := uint64(keys[i]) - base
			if k >= span || !byKey.has(k) {
				continue
			}
			pos[o], rows[o] = int32(j), rowOf[k]
			o++
		}
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// probeRuns is Probe's loop over the runs of a dense index whose keys repeat
// or of a numbered one, under a mask by row or none. A live row's run is its
// key's id k — read from rank at the key's position under a dense index,
// found by find under a numbered one; a key
// no indexed row carries has the id past every run and matches nothing. k's run
// matchRows[offs[k]:offs[k+1]] is copied whole when no mask is kept and it
// fits in the room left — one room check a row. Otherwise each match the
// mask holds is written while there is room; when there is none, the
// position returned resumes inside the run, at that match. The search stays
// out of line (find) and the arrays in locals.
func (x *KeyIndex) probeRuns(b *Batch, cols []int, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	var buf [4]*Vector // up to four key columns stay on the stack
	probe := buf[:0]
	for _, c := range cols {
		probe = append(probe, b.Vecs[c])
	}
	offs, matchRows, sel := x.offs, x.matchRows, b.Sel
	span := uint64(len(offs) - 1)
	rank, base := x.rank, x.min
	var keys []int64
	if rank != nil {
		keys = probe[0].I64
	}
	live, done := b.Rows(), at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		var k uint64
		if rank != nil {
			k = span
			if p := uint64(keys[i]) - base; p < uint64(len(rank)) {
				if r := rank[p]; r >= 0 {
					k = uint64(r)
				}
			}
		} else {
			k = x.find(probe, i)
		}
		if k >= span {
			continue
		}
		start, hi := int(offs[k]), int(offs[k+1])
		lo := start + done
		done = 0
		if byRow == nil && hi-lo < len(pos)-o {
			for ; lo < hi; lo++ {
				pos[o], rows[o] = int32(j), matchRows[lo]
				o++
			}
			continue
		}
		for ; lo < hi; lo++ {
			r := matchRows[lo]
			if byRow != nil && !byRow.has(uint64(r)) {
				continue
			}
			if o == len(pos) {
				return pos, rows, ProbePos{Row: j, Done: lo - start}
			}
			pos[o], rows[o] = int32(j), r
			o++
		}
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// Lookup is Probe for a unique dense index (UniqueDense), no mask and a
// batch b without a selection whose every row is to find its row: one pass
// over the keys writes row j's row to rows[j] and reports true — the pairs
// (j, rows[j]) are then exactly Probe's — or stops at the first key that
// has no row and reports false with rows empty.
func (x *KeyIndex) Lookup(b *Batch, cols []int, rows []int32) ([]int32, bool) {
	keys := b.Vecs[cols[0]].I64[:b.Len()]
	rows = grow(rows[:0], len(keys))
	rowOf, base := x.rowOf, x.min
	span := uint64(len(rowOf))
	for j, key := range keys {
		k := uint64(key) - base
		if k >= span || rowOf[k] < 0 {
			return rows[:0], false
		}
		rows[j] = rowOf[k]
	}
	return rows, true
}

// UniqueDense reports whether x finds every key by address and holds one row
// a key (probeUnique's layout): a probe batch then pairs each live row at
// most once.
func (x *KeyIndex) UniqueDense() bool { return x.rowOf != nil }

// find returns the id of row i of the probe key columns in a numbered
// index: its key's row in the numbering's key-ordered Keys, found by binary
// search under compareKeyRows — the order and the equality the numbering
// was built by, floats by their IEEE bits and strings by value — or the
// number of ids when no indexed row carries the key.
func (x *KeyIndex) find(probe []*Vector, i int) uint64 {
	keys, n := x.ids.Keys, x.ids.Len()
	id := sort.Search(n, func(g int) bool { return compareKeyRows(keys, g, probe, i) >= 0 })
	if id < n && compareKeyRows(keys, id, probe, i) != 0 {
		id = n
	}
	return uint64(id)
}

// Range returns the rows whose key lies in [lo, hi] — none when lo > hi —
// under an index whose keys repeat over one Int64 column, dense or
// numbered: the keys of an interval have consecutive ids, so their runs sit
// back to back in matchRows, and the rows come as one slice of it, grouped
// by key in key order and ascending within a key, with no copy. Both ends
// are read from rank under a dense index, found by binary search over the
// numbering's keys under a numbered one. ok is false for any other index: a
// unique dense one, or a key that is not one Int64 column.
func (x *KeyIndex) Range(lo, hi int64) (rows []int32, ok bool) {
	if x.rank == nil && (x.ids == nil || len(x.ids.Keys) != 1 || x.ids.Keys[0].Typ != Int64) {
		return nil, false
	}
	if lo > hi {
		return nil, true
	}
	return x.matchRows[x.offs[x.keysBelow(lo, false)]:x.offs[x.keysBelow(hi, true)]], true
}

// keysBelow returns how many keys of a one-column Int64 index with runs lie
// below v, counting v's own when with is set: the id of the first key past
// the interval's end.
func (x *KeyIndex) keysBelow(v int64, with bool) int {
	if x.rank == nil {
		keys := x.ids.Keys[0].I64
		return sort.Search(len(keys), func(g int) bool { return keys[g] > v || !with && keys[g] == v })
	}
	if v < int64(x.min) {
		return 0
	}
	p := uint64(v) - x.min
	if p >= uint64(len(x.rank)) {
		return x.keys
	}
	r := x.rank[p]
	switch {
	case r < 0:
		return int(^r)
	case with:
		return int(r) + 1
	}
	return int(r)
}

// grow extends s by room entries: a probe loop writes its pairs in place and
// cuts pos and rows back to what it wrote.
func grow(s []int32, room int) []int32 { return slices.Grow(s, room)[:len(s)+room] }

// Keys returns the number of distinct keys indexed.
func (x *KeyIndex) Keys() int { return x.keys }

// Bytes estimates the index's resident size: its arrays — rowOf, or
// matchRows, offs and a dense index's rank — and a numbered index's
// GroupIDs, 8 bytes a row plus the key columns.
func (x *KeyIndex) Bytes() int64 {
	n := int64(len(x.rowOf)+len(x.matchRows)+len(x.offs)+len(x.rank)) * 4
	if g := x.ids; g != nil {
		n += g.ID.Bytes()
		for _, k := range g.Keys {
			n += k.Bytes()
		}
	}
	return n
}
