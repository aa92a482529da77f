package storage

import "slices"

// KeyIndex finds rows by key. It is built once over the key columns of a set
// of rows and returns, for any key, the ascending rows that carry it: every
// key's rows are one contiguous run of matchRows, and a run is found through
// one of two layouts. A key that is one Int64 column over a short span is
// dense: its run sits behind an offset array indexed by key − min. Every
// other key is numbered: a GroupIndex over the key columns gives each
// distinct key an id, first-seen in row order, and id's run sits behind an
// offset array indexed by id. The build is serial, so the index is the same
// whatever runs beside it; once built it is immutable and safe for
// concurrent probes. A join's build side and a sketch-join's per-key table
// are both found through one, a probe batch at a time (Probe). A join's
// index is its table version's own (Table.KeyIndex), and the rows a query's
// build side keeps are a KeyMask over it.
//
//taster:immutable
type KeyIndex struct {
	// key is the indexed column of a dense index (nil for a numbered one):
	// Mark reads a row's key from it. It is the caller's vector, not a copy.
	key *Vector
	min uint64 // dense: the smallest orderedWord of key
	// groups numbers a numbered index's keys (nil for a dense one). It is
	// only ever looked up in once built (GroupIndex.Lookup).
	groups *GroupIndex

	// matchRows holds every key's run of rows back to back; key k's run is
	// matchRows[offs[k]:offs[k+1]], k being orderedWord − min (dense) or the
	// key's id (numbered).
	matchRows []int32
	offs      []int32
	keys      int // distinct keys
}

const (
	// denseSpanFactor bounds the dense layout's offset array at this many
	// entries per row; sparser keys are numbered.
	denseSpanFactor = 4
	// denseSpanFloor admits any span below it whatever the row count. A
	// selective build-side filter leaves few rows scattered over the
	// dimension's whole key range, but the probe side is still the fact
	// table: zeroing a 256 KB offset array once costs less than hashing
	// every probe row (BenchmarkJoinProbe, dense150k vs sparse150k).
	denseSpanFloor = 1 << 16
	// fibMul is 2^64/φ: multiplying by it and keeping the top bits spreads
	// consecutive and strided keys evenly over a power-of-two table.
	fibMul = 0x9E3779B97F4A7C15
)

// orderedWord flips the sign bit of an int64 key, so keys compare (and
// subtract) in unsigned space as they do signed: a key range straddling zero
// stays a short span, and MinInt64..MaxInt64 is span 2^64−1 with no overflow
// anywhere.
func orderedWord(w uint64) uint64 { return w ^ (1 << 63) }

// NewKeyIndex indexes every row of vecs by its key over cols: dense when the
// key is one Int64 column whose span is under denseSpanFactor× the rows or
// under denseSpanFloor, numbered otherwise.
func NewKeyIndex(vecs []*Vector, cols []int) *KeyIndex {
	x := &KeyIndex{}
	if kv := vecs[cols[0]]; len(cols) == 1 && kv.Typ == Int64 {
		if min, nk, ok := denseSpan(kv.I64); ok {
			x.key = kv
			x.buildDenseIndex(kv.I64, min, nk)
			return x
		}
	}
	x.buildNumberedIndex(vecs, cols)
	return x
}

// denseSpan returns the smallest ordered key and the number of positions
// from it to the largest, and whether that span is short enough to lay out
// densely. No rows is an empty dense range.
func denseSpan(keys []int64) (min uint64, nk int, ok bool) {
	if len(keys) == 0 {
		return 0, 0, true
	}
	lo, hi := orderedWord(uint64(keys[0])), orderedWord(uint64(keys[0]))
	for _, k := range keys[1:] {
		w := orderedWord(uint64(k))
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if span := hi - lo; span < uint64(len(keys))*denseSpanFactor || span < denseSpanFloor {
		return lo, int(span) + 1, true
	}
	return 0, 0, false
}

// buildDenseIndex lays the runs out in key order: key k's position is
// orderedWord(k) − min.
func (x *KeyIndex) buildDenseIndex(keys []int64, min uint64, nk int) {
	pos := make([]int32, len(keys))
	for i, k := range keys {
		pos[i] = int32(orderedWord(uint64(k)) - min)
	}
	x.min = min
	x.buildRuns(pos, nk)
}

// buildNumberedIndex numbers every row's key through a GroupIndex, a
// BatchSize slice of rows at a time as Table.resolveGroups does, and lays the
// runs out in id order.
func (x *KeyIndex) buildNumberedIndex(vecs []*Vector, cols []int) {
	at, out := make([]int, len(cols)), make(Schema, len(cols))
	for k, c := range cols {
		at[k], out[k].Typ = k, vecs[c].Typ
	}
	g := NewGroupIndex(at, out)
	n := vecs[cols[0]].Len()
	ids := make([]int32, n)
	b := &Batch{Vecs: make([]*Vector, len(cols))}
	for lo := 0; lo < n; lo += BatchSize {
		hi := min(lo+BatchSize, n)
		for k, c := range cols {
			b.Vecs[k] = vecs[c].Slice(lo, hi)
		}
		sc := BorrowScratch(hi-lo, len(cols))
		copy(ids[lo:], g.Resolve(b, sc))
		ReturnScratch(sc)
	}
	g.freeze()
	x.groups = &g
	x.buildRuns(ids, g.Len())
}

// buildRuns lays out the runs of rows whose keys have positions pos, each
// below nk, behind offs: ascending row order within every run falls out of
// the forward fill pass. Count position k into offs[k+2], then prefix-sum,
// leaving offs[k+1] at the start of k's run; the fill goes through
// offs[k+1], which walks it to the end of k's run — the start of k+1's — so
// the array finishes as the exclusive offsets with no cursor copy.
func (x *KeyIndex) buildRuns(pos []int32, nk int) {
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
// per key position when the index is dense and every key has exactly one row
// (Unique), so a probe row the mask refuses costs one bit test before any
// offset or row load; one bit per row otherwise, tested per candidate match.
// A nil mask is every row.
type KeyMask []uint64

func (m KeyMask) has(i uint64) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m KeyMask) set(i uint64) { m[i>>6] |= 1 << (i & 63) }

// Unique reports whether every indexed key has exactly one row — observed
// from the data, as the primary key of a dimension table is.
func (x *KeyIndex) Unique() bool { return x.keys == len(x.matchRows) }

// byKey reports whether a mask over x has a bit per key position rather than
// per row: under a dense unique index. A numbered key's ids are first-seen
// row order, so under a unique one an id is its row anyway.
func (x *KeyIndex) byKey() bool { return x.key != nil && x.Unique() }

// NewMask returns an empty mask over x's rows: as many bits as the dense
// span when masks are by key (byKey), as rows otherwise.
func (x *KeyIndex) NewMask() KeyMask {
	n := len(x.matchRows)
	if x.byKey() {
		n = len(x.offs) - 1
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
				m.set(orderedWord(uint64(k)) - min)
			}
			return
		}
		for _, i := range sel {
			m.set(orderedWord(uint64(keys[lo+int(i)])) - min)
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
// mid-run when a row's matches outrun room. A dense index, every join of the
// generated workloads, runs a typed loop per mask shape; a numbered one runs
// one loop over ids (probeNumbered).
func (x *KeyIndex) Probe(b *Batch, cols []int, mask KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	if x.key == nil {
		return x.probeNumbered(b, cols, mask, at, room, pos, rows)
	}
	keys := b.Vecs[cols[0]].I64
	if mask == nil {
		return x.probeDense(keys, b.Sel, b.Rows(), at, room, pos, rows)
	}
	if x.byKey() {
		return x.probeDenseMasked(keys, b.Sel, b.Rows(), mask, nil, at, room, pos, rows)
	}
	return x.probeDenseMasked(keys, b.Sel, b.Rows(), nil, mask, at, room, pos, rows)
}

// probeDense is Probe's loop over a dense index: one offset pair per live
// row, a key below min wrapping to a k the bound refuses.
func (x *KeyIndex) probeDense(keys []int64, sel []int32, live int, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	offs, matchRows, min := x.offs, x.matchRows, x.min
	span := uint64(len(offs) - 1)
	done := at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		k := orderedWord(uint64(keys[i])) - min
		if k >= span {
			continue
		}
		start, hi := int(offs[k]), int(offs[k+1])
		lo := start + done
		done = 0
		if hi-lo >= len(pos)-o {
			return x.fill(pos, rows, o, j, start, lo, hi)
		}
		for ; lo < hi; lo++ {
			pos[o], rows[o] = int32(j), matchRows[lo]
			o++
		}
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// probeDenseMasked is probeDense under a mask: a key byKey refuses is
// skipped before its offsets are read, and a row byRow refuses is skipped
// within its run (fillMasked). The unmasked loop stays free of both tests.
func (x *KeyIndex) probeDenseMasked(keys []int64, sel []int32, live int, byKey, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	offs, min := x.offs, x.min
	span := uint64(len(offs) - 1)
	done := at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		k := orderedWord(uint64(keys[i])) - min
		if k >= span || byKey != nil && !byKey.has(k) {
			continue
		}
		start := int(offs[k])
		var full bool
		if o, at, full = x.fillMasked(pos, rows, byRow, o, j, start, start+done, int(offs[k+1])); full {
			return pos, rows, at
		}
		done = 0
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// probeNumbered is Probe's loop over a numbered index, under a mask by row
// or none: the live rows' ids come from the numbering a BatchSize window at
// a time (GroupIndex.Lookup, −1 for a key no indexed row carries), and id's
// run is matchRows[offs[id]:offs[id+1]]. The window starts at the resume
// row, so a probe resumed mid-batch looks up no row twice.
func (x *KeyIndex) probeNumbered(b *Batch, cols []int, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	sc := BorrowScratch(BatchSize, len(cols))
	defer ReturnScratch(sc)
	live, done := b.Rows(), at.Done
	for lo := at.Row; lo < live; lo += BatchSize {
		for k, id := range x.groups.Lookup(b, cols, lo, min(lo+BatchSize, live), sc) {
			if id < 0 {
				continue
			}
			start := int(x.offs[id])
			var full bool
			if o, at, full = x.fillMasked(pos, rows, byRow, o, lo+k, start, start+done, int(x.offs[id+1])); full {
				return pos, rows, at
			}
			done = 0
		}
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// grow extends s by room entries: a probe loop writes its pairs in place and
// cuts pos and rows back to what it wrote.
func grow(s []int32, room int) []int32 { return slices.Grow(s, room)[:len(s)+room] }

// fill writes live row j's matches matchRows[lo:] into pos and rows from o
// on until they are full, and returns where the next call resumes: at the
// next row when j's run — matchRows[start:hi] — ends with them, inside it
// otherwise.
func (x *KeyIndex) fill(pos, rows []int32, o, j, start, lo, hi int) ([]int32, []int32, ProbePos) {
	for ; o < len(pos); o, lo = o+1, lo+1 {
		pos[o], rows[o] = int32(j), x.matchRows[lo]
	}
	if lo == hi {
		return pos, rows, ProbePos{Row: j + 1}
	}
	return pos, rows, ProbePos{Row: j, Done: lo - start}
}

// fillMasked writes live row j's matches matchRows[lo:hi] that byRow holds
// (nil: every one) into pos and rows from o on and returns the new o. When
// pos is full before the next such match is written, full is true and at is
// where the next call resumes — inside the run, at that match
// (matchRows[start:hi] is j's run).
func (x *KeyIndex) fillMasked(pos, rows []int32, byRow KeyMask, o, j, start, lo, hi int) (_ int, at ProbePos, full bool) {
	for ; lo < hi; lo++ {
		r := x.matchRows[lo]
		if byRow != nil && !byRow.has(uint64(r)) {
			continue
		}
		if o == len(pos) {
			return o, ProbePos{Row: j, Done: lo - start}, true
		}
		pos[o], rows[o] = int32(j), r
		o++
	}
	return o, ProbePos{}, false
}

// Keys returns the number of distinct keys indexed.
func (x *KeyIndex) Keys() int { return x.keys }

// Bytes estimates the index's resident size: its arrays, and a numbered
// index's tuples and tables plus, per string value, the value and its map
// entry.
func (x *KeyIndex) Bytes() int64 {
	n := int64(len(x.matchRows)+len(x.offs)) * 4
	if g := x.groups; g != nil {
		n += int64(len(g.keys))*8 + int64(len(g.slots)+len(g.dense))*4
		for c := range g.strs {
			n += int64(len(g.strs[c].vals)) * 64
		}
	}
	return n
}
