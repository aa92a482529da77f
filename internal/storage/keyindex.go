package storage

import (
	"math/bits"
	"slices"
	"sort"
)

// KeyIndex finds rows by key. It is built once over the key columns of a
// table version (Table.KeyIndex) and returns, for any key, the ascending rows
// that carry it, through one of two layouts. A key that is one Int64 column
// over a short span (DenseSpan) whose every value turns out to have one row —
// a dimension's primary key, a sketch-join payload — is unique dense, found
// by its address: its position key − min indexes rowOf, the key's row or −1.
// Every other key is numbered: the version's own GroupIDs over the key
// columns gives each distinct key an id in key order, a probe finds a key's
// id by address when the key is one Int64 column over a span DenseSpan
// admits (rank) and by binary search over the numbering's keys otherwise,
// and the key's rows sit behind an offset array indexed by id as one
// contiguous run of matchRows. Ids run in key order, so the rows of an
// interval of one Int64 column's keys are one slice of matchRows (Range).
// Each layout has its own probe loops. It keeps no hash table. The build
// is serial, so the index is the same whatever runs beside it; once built it
// is immutable and safe for concurrent probes. A join's build side and a
// sketch-join's per-key table are both found through one, a probe batch at a
// time (Probe), and the rows a query's build side keeps are a KeyMask over
// it.
//
//taster:immutable
type KeyIndex struct {
	// key is the indexed column of a dense index (nil for a numbered one):
	// Mark reads a row's key from it. It is the version's column, not a copy.
	key *Vector
	// min is the smallest key as a word of a dense index or of a numbered
	// one that keeps rank: a key's position is its word − min, which wraps a
	// key below min to a position past every bound (DenseSpan).
	min uint64
	// ids is a numbered index's numbering, its version's GroupIDs over the
	// key columns (nil for a dense one): row i's key has id ids.ID.I64[i],
	// and id g's key is row g of the key-ordered ids.Keys.
	ids *GroupIDs

	// rowOf is a dense index's only array: position k's row, or −1 when no
	// row carries the key (nil for a numbered index).
	rowOf []int32
	// matchRows holds a numbered index's runs of rows back to back; the run
	// of the key with id k is matchRows[offs[k]:offs[k+1]]. Both are nil
	// under rowOf.
	matchRows []int32
	offs      []int32
	// rank is a numbered index's ids by position, kept when the key is one
	// Int64 column whose span DenseSpan admits (nil otherwise): position p
	// holds the id of the key min + p, or, when no row carries that key,
	// ^g, g being the number of keys below it.
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
// positions cols: dense when the key is one Int64 column whose span
// DenseSpan admits for its rows and no value of which repeats, and otherwise
// numbered by t's own GroupIDs, whose ids are laid out in runs — with the
// ids by position (rank) when the key is such a column whose values repeat.
func newKeyIndex(t *Table, cols []int) *KeyIndex {
	x := &KeyIndex{}
	min, nk := uint64(0), -1
	if len(cols) == 1 && t.schema[cols[0]].Typ == Int64 {
		kv := t.Column(cols[0])
		lo, n, ok := denseSpan(kv.I64)
		if ok && x.buildDense(kv.I64, lo, n) {
			x.key = kv
			return x
		}
		if ok {
			min, nk = lo, n
		}
	}
	x.ids = t.GroupIDs(cols)
	x.keys = x.ids.Len() // every id is some row's
	x.buildRuns(x.ids.ID.I64, x.keys)
	if nk >= 0 {
		x.buildRank(min, nk)
	}
	return x
}

// DenseSpan is the one rule for laying an Int64 key out by key − min: keys
// from lo to hi (lo ≤ hi) over rows rows are dense when the span is under
// denseSpanFactor× the rows or under denseSpanFloor, and then n is the
// number of positions from lo to hi. A KeyIndex applies it to the keys it
// indexes; a sketch-join's inline build to the bounds of the table it scans.
func DenseSpan(lo, hi int64, rows int) (n int, ok bool) {
	// Two's-complement subtraction is exact for lo ≤ hi: the span of
	// MinInt64..MaxInt64 is 2^64−1, with no overflow.
	if span := uint64(hi) - uint64(lo); span < uint64(rows)*denseSpanFactor || span < denseSpanFloor {
		return int(span) + 1, true
	}
	return 0, false
}

// denseSpan returns the smallest key, as a word, and the number of positions
// from it to the largest, and whether DenseSpan lays the keys out densely.
// No rows is an empty dense range.
func denseSpan(keys []int64) (uint64, int, bool) {
	if len(keys) == 0 {
		return 0, 0, true
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	if nk, ok := DenseSpan(lo, hi, len(keys)); ok {
		return uint64(lo), nk, true
	}
	return 0, 0, false
}

// buildDense lays the keys out by position uint64(k) − min in rowOf and
// reports true, or gives up at a key's second row, leaving x as it was, and
// reports false: a repeating key is numbered.
func (x *KeyIndex) buildDense(keys []int64, min uint64, nk int) bool {
	rowOf := make([]int32, nk)
	for k := range rowOf {
		rowOf[k] = -1
	}
	for i, k := range keys {
		p := uint64(k) - min
		if rowOf[p] >= 0 {
			return false
		}
		rowOf[p] = int32(i)
	}
	x.min, x.rowOf, x.keys = min, rowOf, len(keys)
	return true
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

// buildRank lays a numbered one-column Int64 index's ids out by position
// key − min over the nk positions from its smallest key to its largest: the
// numbering's Keys run in key order, so one pass over them fills every
// position, a key's with its id and a gap's with ^ the id of the key above.
func (x *KeyIndex) buildRank(min uint64, nk int) {
	keys := x.ids.Keys[0].I64
	rank := make([]int32, nk)
	g := 0
	for p := range rank {
		if g < len(keys) && uint64(keys[g])-min == uint64(p) {
			rank[p] = int32(g)
			g++
		} else {
			rank[p] = ^int32(g)
		}
	}
	x.min, x.rank = min, rank
}

// A KeyMask is a set of the rows a KeyIndex indexes — a join build side's
// survivors — kept in the index's own coordinates (NewMask, Mark): one bit
// per key position under a dense index, so a probe row the mask refuses
// costs one bit test before its row is loaded; one bit per row under a
// numbered one, tested per candidate match.
// A nil mask is every row.
type KeyMask []uint64

func (m KeyMask) has(i uint64) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m KeyMask) set(i uint64) { m[i>>6] |= 1 << (i & 63) }

// NewMask returns an empty mask over x's rows: as many bits as the dense
// span under a dense index (UniqueDense), as rows otherwise.
func (x *KeyIndex) NewMask() KeyMask {
	n := len(x.matchRows)
	if x.UniqueDense() {
		n = len(x.rowOf)
	}
	return make(KeyMask, (n+63)/64)
}

// Mark adds rows to m: lo+sel[j] for every j, or lo..lo+n−1 when sel is nil.
// A row's bit is its key − min under a dense index, the row otherwise.
func (x *KeyIndex) Mark(m KeyMask, lo int, sel []int32, n int) {
	if x.UniqueDense() {
		// Every join of the generated workloads: one subtraction per row.
		keys, min := x.key.I64, x.min
		if sel == nil {
			for _, k := range keys[lo : lo+n] {
				m.set(uint64(k) - min)
			}
			return
		}
		for _, i := range sel {
			m.set(uint64(keys[lo+int(i)]) - min)
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
// mid-run when a row's matches outrun room. A dense index, every join of the
// generated workloads, has one loop per mask shape (probeUnique,
// probeUniqueMasked); a numbered index has one loop that finds a row's run by
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

// probeRuns is Probe's loop over a numbered index's runs, under a mask by
// row or none. A live row's run is its key's id k — read from rank at the
// key's position when the index keeps one, found by find otherwise; a key
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
// under a numbered index over one Int64 column: the keys of an interval
// have consecutive ids, so their runs sit back to back in matchRows, and
// the rows come as one slice of it, grouped by key in key order and
// ascending within a key, with no copy. Both ends are read from rank when
// the index keeps one, found by binary search over the numbering's keys
// otherwise. ok is false for any other index: a unique dense one, or a key
// that is not one Int64 column.
func (x *KeyIndex) Range(lo, hi int64) (rows []int32, ok bool) {
	if x.ids == nil || len(x.ids.Keys) != 1 || x.ids.Keys[0].Typ != Int64 {
		return nil, false
	}
	if lo > hi {
		return nil, true
	}
	return x.matchRows[x.offs[x.keysBelow(lo, false)]:x.offs[x.keysBelow(hi, true)]], true
}

// keysBelow returns how many keys of a numbered one-column Int64 index lie
// below v, counting v's own when with is set: the id of the first key past
// the interval's end.
func (x *KeyIndex) keysBelow(v int64, with bool) int {
	keys := x.ids.Keys[0].I64
	if x.rank == nil {
		return sort.Search(len(keys), func(g int) bool { return keys[g] > v || !with && keys[g] == v })
	}
	if v < int64(x.min) {
		return 0
	}
	p := uint64(v) - x.min
	if p >= uint64(len(x.rank)) {
		return len(keys)
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
// matchRows, offs and any rank — and a numbered index's GroupIDs, 8 bytes a
// row plus the key columns.
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
