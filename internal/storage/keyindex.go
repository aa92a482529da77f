package storage

import (
	"math"
	"math/bits"
	"slices"
)

// FixedWord encodes row i of a fixed-width column as one word, with the same
// value identity as GroupKey's byte encoding: two's complement, IEEE bits,
// 0/1. Group columns and fixed-width keys share it.
func FixedWord(v *Vector, i int) uint64 {
	switch v.Typ {
	case Int64:
		return uint64(v.I64[i])
	case Float64:
		return math.Float64bits(v.F64[i])
	default: // Bool
		if v.B[i] {
			return 1
		}
		return 0
	}
}

// GroupKey builds a deterministic byte key from selected columns of a row.
func GroupKey(dst []byte, vecs []*Vector, cols []int, row int) []byte {
	dst = dst[:0]
	for _, c := range cols {
		v := vecs[c]
		switch v.Typ {
		case Int64:
			x := uint64(v.I64[row])
			dst = append(dst, 1, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case Float64:
			x := math.Float64bits(v.F64[row])
			dst = append(dst, 2, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case String:
			// Length-prefixed, not NUL-terminated: a terminator byte lets
			// NUL-embedded strings collide across column boundaries (e.g. the
			// two-column keys ("a\x00\x03b","c") and ("a","b\x00\x03c") encode
			// to the same bytes under termination).
			s := v.Str[row]
			n := uint32(len(s))
			dst = append(dst, 3, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
			dst = append(dst, s...)
		case Bool:
			if v.B[row] {
				dst = append(dst, 4, 1)
			} else {
				dst = append(dst, 4, 0)
			}
		}
	}
	return dst
}

// KeyIndex finds rows by key. It is built once over the key columns of a set
// of rows and returns, for any key, the ascending rows that carry it. Every
// row's key is one word — a one-column int64, float64 or bool key's
// FixedWord, any other key's dense id — and every word's rows are one
// contiguous run of matchRows, found through one of two map-free indexes laid
// out in the same integer passes as the runs (buildWordIndex picks by the
// observed word span). The build is serial, so the index is the same whatever
// runs beside it; once built it is immutable and safe for concurrent probes.
// A join's build side and a sketch-join's per-key table are both found
// through one, a probe batch at a time (Probe). A join's index is its table
// version's own (Table.KeyIndex), and the rows a query's build side keeps
// are a KeyMask over it.
type KeyIndex struct {
	// fixed marks a key that is one int64, float64 or bool column: a row's
	// word is that column's FixedWord. Any other key — a string column, or
	// several columns — is numbered through ids.
	fixed bool
	// key is the indexed column of a fixed key (nil otherwise): Mark reads a
	// row's word from it. It is the caller's vector, not a copy.
	key *Vector

	// ids numbers the distinct GroupKey bytes of a key that is not fixed,
	// 0..k−1 in first-seen row order (nil for a fixed key). The numbers are
	// the words: k ≤ rows, so they always take the dense index.
	ids map[string]int32

	// matchRows holds every word's run of rows back to back.
	matchRows []int32
	keys      int // distinct words

	// Dense-range index (denseOffs non-nil): the ordered words span at most
	// denseSpanFactor× the rows (or less than denseSpanFloor), and key w's run
	// is matchRows[denseOffs[k]:denseOffs[k+1]] with k = orderedWord(w) −
	// denseMin. Every surrogate key of the generated workloads, and every
	// id-numbered key, lands here.
	denseMin  uint64
	denseOffs []int32

	// Open-addressing index (otherwise): power-of-two slots sized once from
	// the row count, Fibonacci hashing, linear probing, no growth. A slot
	// carries its key's run bounds inline, so a probe touches one cache line
	// before the run itself.
	slots     []wordSlot
	slotShift uint
}

// wordSlot is one open-addressing slot: key word w owns matchRows[lo:hi].
// Every present key has at least one row, so hi == 0 marks an empty slot.
type wordSlot struct {
	w      uint64
	lo, hi int32
}

const (
	// denseSpanFactor bounds the dense index's offset array at this many
	// entries per row; sparser key sets take the open-addressing index.
	denseSpanFactor = 4
	// denseSpanFloor admits any span below it whatever the row count. A
	// selective build-side filter leaves few rows scattered over the
	// dimension's whole key range, but the probe side is still the fact
	// table: zeroing a 256 KB offset array once costs less than hashing
	// every probe row (BenchmarkJoinProbe, dense150k vs sparse150k: 4.4 vs
	// 13.5 ns per probe row, 5.7 vs 14.1 under a selection).
	denseSpanFloor = 1 << 16
	// fibMul is 2^64/φ: multiplying by it and keeping the top bits spreads
	// consecutive and strided keys evenly over a power-of-two table.
	fibMul = 0x9E3779B97F4A7C15
)

// orderedWord flips the sign bit of a FixedWord, so int64 keys compare (and
// subtract) in unsigned space as they do signed: a key range straddling zero
// stays a short span, and MinInt64..MaxInt64 is span 2^64−1 with no overflow
// anywhere. For float64 and bool words it is merely a bijection, which is all
// the index needs.
func orderedWord(w uint64) uint64 { return w ^ (1 << 63) }

// NewKeyIndex indexes every row of vecs by its key over cols: its words
// (keyWords), then the word index over them (buildWordIndex). Both are a
// handful of O(n) passes over flat arrays.
func NewKeyIndex(vecs []*Vector, cols []int) *KeyIndex {
	x := &KeyIndex{fixed: len(cols) == 1 && vecs[cols[0]].Typ != String}
	if x.fixed {
		x.key = vecs[cols[0]]
	}
	x.buildWordIndex(x.keyWords(vecs, cols))
	return x
}

// keyWords returns every row's key word. A fixed key's word is its column's
// FixedWord, which mirrors GroupKey's per-type encoding, so word equality is
// byte-key equality within the type. Any other key's word is its dense id,
// assigned in first-seen row order through x.ids over the rows' GroupKey
// bytes — the map probeRows looks a probe's own key bytes up in.
func (x *KeyIndex) keyWords(vecs []*Vector, cols []int) []uint64 {
	words := make([]uint64, vecs[cols[0]].Len())
	if x.fixed {
		kv := vecs[cols[0]]
		for i := range words {
			words[i] = FixedWord(kv, i)
		}
		return words
	}
	x.ids = make(map[string]int32)
	var key []byte
	for i := range words {
		key = GroupKey(key, vecs, cols, i)
		id, ok := x.ids[string(key)]
		if !ok {
			id = int32(len(x.ids))
			x.ids[string(key)] = id
		}
		words[i] = uint64(id)
	}
	return words
}

// buildWordIndex lays out the runs of matchRows and the index over them:
// ascending row order within every run falls out of the forward fill pass,
// and no Go map is involved. No rows is an empty dense range.
func (x *KeyIndex) buildWordIndex(words []uint64) {
	n := len(words)
	x.matchRows = make([]int32, n)
	if n == 0 {
		x.denseOffs = []int32{0}
		return
	}
	// Pass 1: the ordered word span decides the index layout.
	lo, hi := orderedWord(words[0]), orderedWord(words[0])
	for _, w := range words[1:] {
		w = orderedWord(w)
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if span := hi - lo; span < uint64(n)*denseSpanFactor || span < denseSpanFloor {
		x.buildDenseIndex(words, lo, int(span)+1)
	} else {
		x.buildSlotIndex(words)
	}
}

// buildDenseIndex lays the runs out in word order behind an offset array
// indexed by orderedWord − min.
func (x *KeyIndex) buildDenseIndex(words []uint64, min uint64, nk int) {
	// Pass 2: count word k into offs[k+2], then prefix-sum, leaving offs[k+1]
	// at the start of k's run. Pass 3 fills through offs[k+1], which walks it
	// to the end of k's run — the start of k+1's — so the array finishes as
	// the exclusive offsets with no cursor copy.
	offs := make([]int32, nk+2)
	for _, w := range words {
		k := orderedWord(w) - min + 2
		if offs[k] == 0 {
			x.keys++
		}
		offs[k]++
	}
	for k := 2; k < len(offs); k++ {
		offs[k] += offs[k-1]
	}
	for i, w := range words {
		k := orderedWord(w) - min + 1
		x.matchRows[offs[k]] = int32(i)
		offs[k]++
	}
	x.denseMin, x.denseOffs = min, offs[:nk+1]
}

// buildSlotIndex lays the runs out in slot order behind an open-addressing
// table of at least 2n slots (load ≤ 1/2, so a probe always meets an empty
// slot and the table never grows).
func (x *KeyIndex) buildSlotIndex(words []uint64) {
	n := len(words)
	nSlots := 1 << bits.Len(uint(2*n-1))
	slots := make([]wordSlot, nSlots)
	shift := uint(64 - bits.TrailingZeros(uint(nSlots)))
	mask := uint64(nSlots - 1)

	// Pass 2: claim a slot per distinct word, counting its rows in hi.
	slotOf := make([]int32, n)
	for i, w := range words {
		s := (w * fibMul) >> shift
		for slots[s].hi != 0 && slots[s].w != w {
			s = (s + 1) & mask
		}
		if slots[s].hi == 0 {
			x.keys++
		}
		slots[s].w = w
		slots[s].hi++
		slotOf[i] = int32(s)
	}
	// Counts -> run starts, in slot order (any fixed order works: a run's
	// position never shows, only its contents do).
	var at int32
	for s := range slots {
		if c := slots[s].hi; c != 0 {
			slots[s].lo, slots[s].hi = at, at
			at += c
		}
	}
	// Pass 3: fill each run in ascending row order; hi walks from the run's
	// start to its end.
	for i, s := range slotOf {
		x.matchRows[slots[s].hi] = int32(i)
		slots[s].hi++
	}
	x.slots, x.slotShift = slots, shift
}

// A KeyMask is a set of the rows a KeyIndex indexes — a join build side's
// survivors — kept in the index's own coordinates (NewMask, Mark): one bit
// per key position when every key has exactly one row (Unique), so a probe
// row the mask refuses costs one bit test before any offset or row load; one
// bit per row otherwise, tested per candidate match. A nil mask is every row.
type KeyMask []uint64

func (m KeyMask) has(i uint64) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m KeyMask) set(i uint64) { m[i>>6] |= 1 << (i & 63) }

// Unique reports whether every indexed key has exactly one row — observed
// from the data, as the primary key of a dimension table is.
func (x *KeyIndex) Unique() bool { return x.keys == len(x.matchRows) }

// NewMask returns an empty mask over x's rows: as many bits as x has key
// positions (the dense span, or the slots) when it is Unique, as rows
// otherwise.
func (x *KeyIndex) NewMask() KeyMask {
	n := len(x.matchRows)
	if x.Unique() {
		if x.denseOffs != nil {
			n = len(x.denseOffs) - 1
		} else {
			n = len(x.slots)
		}
	}
	return make(KeyMask, (n+63)/64)
}

// Mark adds rows to m: lo+sel[j] for every j, or lo..lo+n−1 when sel is nil.
// Under a unique index a row's bit is its key's position (position).
func (x *KeyIndex) Mark(m KeyMask, lo int, sel []int32, n int) {
	if x.Unique() && x.fixed && x.denseOffs != nil && x.key.Typ == Int64 {
		// Every join of the generated workloads: one subtraction per row
		// (BenchmarkJoinBuild/orders/mask 0.19 ms, 0.24 ms through position).
		keys, min := x.key.I64, x.denseMin
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
			m.set(x.position(r))
		}
		return
	}
	for _, i := range sel {
		m.set(x.position(lo + int(i)))
	}
}

// position is row r's bit in a mask over x: its key's dense offset or slot
// under a unique index, the row itself otherwise. An id-numbered key's ids
// are first-seen row order, so under a unique one the position is the row
// too.
func (x *KeyIndex) position(r int) uint64 {
	if !x.Unique() || !x.fixed {
		return uint64(r)
	}
	w := FixedWord(x.key, r)
	if x.denseOffs != nil {
		return orderedWord(w) - x.denseMin
	}
	return uint64(x.slotOf(w))
}

// split hands a probe loop m as per-key or per-row bits, by x's
// coordinates; both are nil for the nil mask.
func (x *KeyIndex) split(m KeyMask) (byKey, byRow KeyMask) {
	if m == nil || x.Unique() {
		return m, nil
	}
	return nil, m
}

// ProbePos is where a Probe resumes inside its probe batch: the live row Row,
// of whose matches the first Done have already been paired.
type ProbePos struct{ Row, Done int }

// Probe pairs the live rows of b from at on with the rows in mask (nil: every
// row) whose key equals theirs over cols — columns typed as the indexed ones.
// It appends each pair's
// live position (an index into b.Sel, or the row itself when b has no
// selection) to pos and its matching row to rows, in live-row order and
// ascending within a row, and stops once room pairs are out or the batch is:
// it returns fewer than room pairs only with Row == b.Rows(). The position it
// returns is where the next call resumes — mid-run when a row's matches outrun
// room. A one-column int64 key, every join of the generated workloads, runs a
// typed loop per layout; any other key finds its word one row at a time
// (probeRows).
func (x *KeyIndex) Probe(b *Batch, cols []int, mask KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	byKey, byRow := x.split(mask)
	if kv := b.Vecs[cols[0]]; x.fixed && kv.Typ == Int64 {
		switch {
		case mask == nil && x.denseOffs != nil:
			return x.probeDense(kv.I64, b.Sel, b.Rows(), at, room, pos, rows)
		case mask == nil:
			return x.probeSlots(kv.I64, b.Sel, b.Rows(), at, room, pos, rows)
		case x.denseOffs != nil:
			return x.probeDenseMasked(kv.I64, b.Sel, b.Rows(), byKey, byRow, at, room, pos, rows)
		}
		return x.probeSlotsMasked(kv.I64, b.Sel, b.Rows(), byKey, byRow, at, room, pos, rows)
	}
	return x.probeRows(b, cols, byKey, byRow, at, room, pos, rows)
}

// probeDense is Probe's loop over int64 keys and the dense index: one offset
// pair per live row, a word below denseMin wrapping to a k the bound refuses.
func (x *KeyIndex) probeDense(keys []int64, sel []int32, live int, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	offs, matchRows, min := x.denseOffs, x.matchRows, x.denseMin
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

// probeSlots is Probe's loop over int64 keys and the open-addressing index:
// an empty slot's bounds are 0, 0, so a miss is an empty run.
func (x *KeyIndex) probeSlots(keys []int64, sel []int32, live int, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	slots, matchRows, shift, mask := x.slots, x.matchRows, x.slotShift, uint64(len(x.slots)-1)
	done := at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		w := uint64(keys[i])
		s := (w * fibMul) >> shift
		sl := &slots[s]
		for sl.hi != 0 && sl.w != w {
			s = (s + 1) & mask
			sl = &slots[s]
		}
		start, hi := int(sl.lo), int(sl.hi)
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
// within its run (fillMasked). The unmasked loops stay free of both tests.
func (x *KeyIndex) probeDenseMasked(keys []int64, sel []int32, live int, byKey, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	offs, min := x.denseOffs, x.denseMin
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

// probeSlotsMasked is probeSlots under a mask, as probeDenseMasked is
// probeDense: byKey is tested at the slot the probe chain ends on.
func (x *KeyIndex) probeSlotsMasked(keys []int64, sel []int32, live int, byKey, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	done := at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		s := x.slotOf(uint64(keys[i]))
		if byKey != nil && !byKey.has(uint64(s)) {
			continue
		}
		start := int(x.slots[s].lo)
		var full bool
		if o, at, full = x.fillMasked(pos, rows, byRow, o, j, start, start+done, int(x.slots[s].hi)); full {
			return pos, rows, at
		}
		done = 0
	}
	return pos[:o], rows[:o], ProbePos{Row: live}
}

// probeRows is Probe for every other key: a float64 or bool column's
// FixedWord, or the id the id map gives the row's GroupKey bytes — bytes no
// indexed row carries match nothing.
func (x *KeyIndex) probeRows(b *Batch, cols []int, byKey, byRow KeyMask, at ProbePos, room int, pos, rows []int32) ([]int32, []int32, ProbePos) {
	o := len(pos)
	pos, rows = grow(pos, room), grow(rows, room)
	var buf [64]byte
	key := buf[:0]
	live, done := b.Rows(), at.Done
	for j := at.Row; j < live; j++ {
		i := j
		if b.Sel != nil {
			i = int(b.Sel[j])
		}
		var w uint64
		if x.fixed {
			w = FixedWord(b.Vecs[cols[0]], i)
		} else {
			key = GroupKey(key, b.Vecs, cols, i)
			id, ok := x.ids[string(key)]
			if !ok {
				continue
			}
			w = uint64(id)
		}
		k, start, hi := x.lookupWord(w)
		if k < 0 || byKey != nil && !byKey.has(uint64(k)) {
			continue
		}
		lo := start + done
		done = 0
		if byRow != nil {
			var full bool
			if o, at, full = x.fillMasked(pos, rows, byRow, o, j, start, lo, hi); full {
				return pos, rows, at
			}
			continue
		}
		if hi-lo >= len(pos)-o {
			return x.fill(pos, rows, o, j, start, lo, hi)
		}
		for ; lo < hi; lo++ {
			pos[o], rows[o] = int32(j), x.matchRows[lo]
			o++
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

// lookupWord returns w's key position — its dense offset or its slot, −1
// when the dense range cannot hold it — and the bounds in matchRows of the
// ascending rows whose key word is w (an empty run when there are none).
func (x *KeyIndex) lookupWord(w uint64) (k, lo, hi int) {
	if x.denseOffs != nil {
		// A word below denseMin wraps to a huge k and fails the bound check.
		k := orderedWord(w) - x.denseMin
		if k >= uint64(len(x.denseOffs)-1) {
			return -1, 0, 0
		}
		return int(k), int(x.denseOffs[k]), int(x.denseOffs[k+1])
	}
	s := x.slotOf(w)
	return s, int(x.slots[s].lo), int(x.slots[s].hi)
}

// slotOf returns the slot holding word w, or the empty slot its probe chain
// ends at.
func (x *KeyIndex) slotOf(w uint64) int {
	mask := uint64(len(x.slots) - 1)
	for s := (w * fibMul) >> x.slotShift; ; s = (s + 1) & mask {
		if sl := &x.slots[s]; sl.hi == 0 || sl.w == w {
			return int(s)
		}
	}
}

// Keys returns the number of distinct keys indexed.
func (x *KeyIndex) Keys() int { return x.keys }

// Bytes estimates the index's resident size: its arrays, and per id a key
// string, its id and the map's own slot.
func (x *KeyIndex) Bytes() int64 {
	return int64(len(x.matchRows)+len(x.denseOffs))*4 + int64(len(x.slots))*16 + int64(len(x.ids))*64
}
