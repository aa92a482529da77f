package storage

import (
	"slices"
	"sort"
)

// KeyIndex finds rows by key. It is built once over the key columns of a
// table version (Table.KeyIndex) and returns, for any key, the ascending rows
// that carry it, through one of three layouts, and it finds a key in one of
// two ways: by address or by its version's numbering. A key that is one Int64
// column over a short span (DenseSpan) is dense, found by its position
// key − min: when every key turns out to have one row — a dimension's primary
// key, a sketch-join payload — that position indexes rowOf, the key's row or
// −1 (unique dense); otherwise it indexes an offset array behind which the
// key's rows sit as one contiguous run of matchRows (dense runs). Every other
// key is numbered: the version's own GroupIDs over the key columns gives each
// distinct key an id in key order, a probe finds a key's id by binary search
// over the numbering's keys, and id's run sits behind an offset array indexed
// by id. A probe reads every run, dense or numbered, through one loop; only
// the unique layout has loops of its own. It keeps no hash table. The build
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
	// min is a dense index's smallest key as a word: a key's position is
	// its word − min, which wraps a key below min to a position past every
	// bound (DenseSpan).
	min uint64
	// ids is a numbered index's numbering, its version's GroupIDs over the
	// key columns (nil for a dense one): row i's key has id ids.ID.I64[i],
	// and id g's key is row g of the key-ordered ids.Keys.
	ids *GroupIDs

	// rowOf is a unique dense index's only array: position k's row, or −1
	// when no row carries the key (nil for the other two layouts).
	rowOf []int32
	// matchRows holds every key's run of rows back to back; key k's run is
	// matchRows[offs[k]:offs[k+1]], k being the key's position (dense runs) or
	// the key's id (numbered). Both are nil under rowOf.
	matchRows []int32
	offs      []int32
	keys      int // distinct keys
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
// DenseSpan admits for its rows — unique or in runs, as the rows turn out —
// and otherwise numbered by t's own GroupIDs, whose ids are laid out in
// runs.
func newKeyIndex(t *Table, cols []int) *KeyIndex {
	x := &KeyIndex{}
	if len(cols) == 1 && t.schema[cols[0]].Typ == Int64 {
		kv := t.Column(cols[0])
		if min, nk, ok := denseSpan(kv.I64); ok {
			x.key = kv
			x.buildDenseIndex(kv.I64, min, nk)
			return x
		}
	}
	x.ids = t.GroupIDs(cols)
	x.buildRuns(x.ids.ID.I64, x.ids.Len())
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

// buildDenseIndex lays the keys out by position uint64(k) − min: in rowOf
// while every position holds one row; in runs (buildRuns), in position
// order, once one holds a second.
func (x *KeyIndex) buildDenseIndex(keys []int64, min uint64, nk int) {
	x.min = min
	rowOf := make([]int32, nk)
	for k := range rowOf {
		rowOf[k] = -1
	}
	for i, k := range keys {
		p := uint64(k) - min
		if rowOf[p] < 0 {
			rowOf[p] = int32(i)
			continue
		}
		pos := make([]int64, len(keys))
		for i, k := range keys {
			pos[i] = int64(uint64(k) - min)
		}
		x.buildRuns(pos, nk)
		return
	}
	x.rowOf, x.keys = rowOf, len(keys)
}

// buildRuns lays out the runs of rows whose keys have positions pos, each
// below nk, behind offs: ascending row order within every run falls out of
// the forward fill pass. Count position k into offs[k+2], then prefix-sum,
// leaving offs[k+1] at the start of k's run; the fill goes through
// offs[k+1], which walks it to the end of k's run — the start of k+1's — so
// the array finishes as the exclusive offsets with no cursor copy.
func (x *KeyIndex) buildRuns(pos []int64, nk int) {
	offs := make([]int32, nk+2)
	for _, k := range pos {
		if offs[k+2] == 0 {
			x.keys++
		}
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
// refuses costs one bit test before its row is loaded; one bit per row
// otherwise, tested per candidate match.
// A nil mask is every row.
type KeyMask []uint64

func (m KeyMask) has(i uint64) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m KeyMask) set(i uint64) { m[i>>6] |= 1 << (i & 63) }

// byKey reports whether a mask over x has a bit per key position rather than
// per row: under a unique dense index.
func (x *KeyIndex) byKey() bool { return x.rowOf != nil }

// NewMask returns an empty mask over x's rows: as many bits as the dense
// span when masks are by key (byKey), as rows otherwise.
func (x *KeyIndex) NewMask() KeyMask {
	n := len(x.matchRows)
	if x.byKey() {
		n = len(x.rowOf)
	}
	return make(KeyMask, (n+63)/64)
}

// Mark adds rows to m: lo+sel[j] for every j, or lo..lo+n−1 when sel is nil.
// A row's bit is its key − min when masks are by key, the row otherwise.
func (x *KeyIndex) Mark(m KeyMask, lo int, sel []int32, n int) {
	if x.byKey() {
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
// probeUniqueMasked); every other index, dense runs or numbered, has one loop
// that finds a row's run by address or by search (probeRuns).
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

// probeRuns is Probe's loop over runs, dense or numbered, under a mask by
// row or none. A live row's run position k is, under dense runs, its key −
// min, a key below min wrapping to a k the bound refuses; under a numbered
// index, its key's id (find). A key no indexed row carries matches nothing.
// k's run matchRows[offs[k]:offs[k+1]] is copied whole when no mask is kept
// and it fits in the room left — one room check a row. Otherwise each match
// the mask holds is written while there is room; when there is none, the
// position returned resumes inside the run, at that match. The loop keeps
// the search out of line, and the dense keys and the arrays in locals: with
// either inline, spills made it a third slower per pair
// (BenchmarkJoinProbe/runs150k).
func (x *KeyIndex) probeRuns(b *Batch, cols []int, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	var buf [4]*Vector // up to four key columns stay on the stack
	probe := buf[:0]
	for _, c := range cols {
		probe = append(probe, b.Vecs[c])
	}
	offs, matchRows, sel, min := x.offs, x.matchRows, b.Sel, x.min
	var keys []int64 // the probe keys under dense runs, nil when numbered
	if x.ids == nil {
		keys = probe[0].I64
	}
	span := uint64(len(offs) - 1)
	live, done := b.Rows(), at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		var k uint64
		if keys != nil {
			k = uint64(keys[i]) - min
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

// grow extends s by room entries: a probe loop writes its pairs in place and
// cuts pos and rows back to what it wrote.
func grow(s []int32, room int) []int32 { return slices.Grow(s, room)[:len(s)+room] }

// Keys returns the number of distinct keys indexed.
func (x *KeyIndex) Keys() int { return x.keys }

// Bytes estimates the index's resident size: its arrays — rowOf, or
// matchRows and offs — and a numbered index's GroupIDs, 8 bytes a row plus
// the key columns.
func (x *KeyIndex) Bytes() int64 {
	n := int64(len(x.rowOf)+len(x.matchRows)+len(x.offs)) * 4
	if g := x.ids; g != nil {
		n += g.ID.Bytes()
		for _, k := range g.Keys {
			n += k.Bytes()
		}
	}
	return n
}
