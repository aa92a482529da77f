package storage

import (
	"math"
	"math/bits"
	"slices"
)

// GroupIndex is the engine's one exact numbering of key tuples — which rows
// share a key. It turns each group column of a live row into one word, and
// the word tuple into a dense group id, 0..n-1 in the order the groups were
// first seen. Its holders keep their per-group state in flat slabs indexed
// by that id, so opening a group allocates nothing of its own and a partial
// merges into another by translating ids and folding slab into slab. The
// executor's two sinks and the sketch-join's inline build, the distinct and
// stratified samplers' strata, the table statistics (Stats, GroupCount,
// MinGroupOf) and a table version's GroupIDs — which a KeyIndex that is not
// dense probes — all count through one. It numbers only while it builds
// (Resolve, Absorb), and a holder reads the result by id or in key order
// (KeyColumns, KeyOrder); nothing looks a key up in a built index.
//
// Words. An int64, float64 or bool column's word is FixedWord's encoding —
// two's complement, IEEE bits, 0/1 — so -0.0 and every NaN payload are
// groups of their own, as GROUP BY answers. A string column's word is a
// partial-local code (strCodes): group identity never depends on which
// dictionary, if any, a batch's vector happened to carry.
//
// Ids. While every column is a string or a bool and every word is small, the
// packed words index a dense array directly; the first word too large moves
// the index, for good, to an open-addressing table over the tuples
// (Fibonacci hashing, linear probing, load ≤ 1/2), growable, since groups
// arrive unannounced. Either way the tuples are kept
// in id order in keys, which is all KeyColumns needs to rebuild the key
// values and all a rehash needs to rebuild the table.
//
// A holder that orders its groups takes KeyOrder's, so ids — first-seen
// order, and below them string codes and dictionaries — never show.
type GroupIndex struct {
	cols []int      // positions of the group columns in a batch
	out  Schema     // the group columns, as the holder names and types them
	strs []strCodes // per column: its local string codes, unused for a fixed-width column

	n    int      // groups opened so far
	keys []uint64 // group id's word tuple at keys[id*len(cols):]

	// Word tuple → id+1, 0 for none. dense is indexed by the tuple's words
	// packed denseBits apiece and is nil once a word has outgrown that;
	// slots, allocated on the first hashed lookup, by hashWords >> shift.
	// denseMem is the dense array's memory, which Reset brings back.
	dense     []int32
	denseMem  []int32
	denseBits uint
	slots     []int32
	shift     uint

	tuple  []uint64   // scratch: one tuple
	merged []int32    // scratch: Absorb's result
	to     [][]uint64 // scratch: Absorb's string code translations
}

// ResolveScratch is the working memory of Resolve: column c's word of live
// row j at words[c*rows+j], the rows' dense positions when several columns
// pack into one, and the ids handed back. It grows to the largest batch it
// has resolved and is reused batch to batch by whoever owns it — a morsel
// worker for its sink and its strata, borrowed from the run's pool
// (VecPool.GetScratch), or a loop outside a run, which owns one. Its zero
// value is ready to use.
type ResolveScratch struct {
	words []uint64
	pos   []uint64
	ids   []int32
}

// grow makes room for n live rows over nc group columns.
func (sc *ResolveScratch) grow(n, nc int) {
	if cap(sc.ids) < n {
		sc.ids = make([]int32, max(n, BatchSize))
	}
	if cap(sc.words) < n*nc {
		sc.words = make([]uint64, max(n, BatchSize)*nc)
	}
}

// IDs returns the scratch's id buffer for n rows, for a holder that numbers
// a batch's rows itself.
func (sc *ResolveScratch) IDs(n int) []int32 {
	sc.grow(n, 0)
	return sc.ids[:n]
}

const (
	// denseIndexBits sizes the dense array (1 KB of int32 per partial): one
	// string column of up to 256 values, two of 16 each — every string GROUP
	// BY of the generated workloads.
	denseIndexBits = 8
	// groupSlotsMin is the hashed table's first size; it doubles whenever
	// the groups would fill more than half of it.
	groupSlotsMin = 64
	// fibMul is 2^64/φ: multiplying by it and keeping the top bits spreads
	// consecutive and strided keys evenly over a power-of-two table.
	fibMul = 0x9E3779B97F4A7C15
)

// NewGroupIndex indexes the group columns at positions cols of a batch; out
// leads with those columns, named and typed as the holder sees them.
func NewGroupIndex(cols []int, out Schema) GroupIndex {
	g := GroupIndex{cols: cols, out: out[:len(cols)], strs: make([]strCodes, len(cols)), tuple: make([]uint64, len(cols))}
	small := len(cols) > 0
	for _, col := range g.out {
		small = small && (col.Typ == String || col.Typ == Bool)
	}
	if small && denseIndexBits/len(cols) >= 2 {
		g.denseBits = uint(denseIndexBits / len(cols))
		g.dense = make([]int32, 1<<(g.denseBits*uint(len(cols))))
		g.denseMem = g.dense
	}
	return g
}

// Reset empties the index for reuse and keeps what it has grown: the key
// and slot arrays, the dense array, and each string column's values and
// dictionary translations. From then on it numbers groups exactly as a fresh
// index over the same columns would: the dense array is back if the index
// started with one, the hashed table is empty, and every string is unseen
// again. Keeping a translation is safe because a dictionary never changes.
func (g *GroupIndex) Reset() {
	g.n = 0
	g.keys = g.keys[:0]
	g.slots = g.slots[:0]
	if g.denseMem != nil {
		g.dense = g.denseMem
		clear(g.dense)
	}
	for c := range g.strs {
		g.strs[c].reset()
	}
}

// Len returns the number of groups opened so far.
func (g *GroupIndex) Len() int { return g.n }

// Sole opens the one group of an index over no columns.
func (g *GroupIndex) Sole() { g.n = 1 }

// Resolve returns the group id of every live row of b, in live-row order,
// opening groups as it meets them. The ids are sc's memory.
func (g *GroupIndex) Resolve(b *Batch, sc *ResolveScratch) []int32 {
	n, nc := b.Rows(), len(g.cols)
	sc.grow(n, nc)
	ids := sc.ids[:n]
	if nc == 0 {
		g.Sole()
		clear(ids)
		return ids
	}
	words := sc.words[:n*nc]
	for c, col := range g.cols {
		g.colWords(c, b.Vecs[col], b.Sel, words[c*n:(c+1)*n])
	}
	if pos := g.densePositions(words, n, sc); pos != nil {
		for j, at := range pos {
			id := g.dense[at]
			if id == 0 {
				id = g.id(g.tupleAt(words, n, j)) + 1
			}
			ids[j] = id - 1
		}
		return ids
	}
	if nc == 1 {
		g.resolveHashed(words, ids)
		return ids
	}
	for j := range ids {
		ids[j] = g.id(g.tupleAt(words, n, j))
	}
	return ids
}

// tupleAt gathers live row j's words out of the column-major scratch.
func (g *GroupIndex) tupleAt(words []uint64, n, j int) []uint64 {
	for c := range g.tuple {
		g.tuple[c] = words[c*n+j]
	}
	return g.tuple
}

// densePositions packs every row's words into its dense-array position,
// column by column — for one column the words are the positions. A batch
// with a word too large for the array gets nil, and the index leaves the
// array for good.
func (g *GroupIndex) densePositions(words []uint64, n int, sc *ResolveScratch) []uint64 {
	if g.dense == nil {
		return nil
	}
	all := uint64(0)
	for _, w := range words {
		all |= w
	}
	if all>>g.denseBits != 0 {
		g.dense = nil
		return nil
	}
	pos := words[:n]
	if nc := len(g.cols); nc > 1 {
		if cap(sc.pos) < n {
			sc.pos = make([]uint64, max(n, BatchSize))
		}
		pos = sc.pos[:n]
		copy(pos, words)
		for c := 1; c < nc; c++ {
			shift := uint(c) * g.denseBits
			for j, w := range words[c*n:][:n] {
				pos[j] |= w << (shift & 63)
			}
		}
	}
	return pos
}

// densePos packs a tuple of small words into its position in the dense
// array; small is false when a word does not fit, or the array is gone.
func (g *GroupIndex) densePos(ws []uint64) (at uint64, small bool) {
	if g.dense == nil {
		return 0, false
	}
	for c, w := range ws {
		if w>>g.denseBits != 0 {
			return 0, false
		}
		at |= w << (uint(c) * g.denseBits)
	}
	return at, true
}

// colWords writes group column c's word of every live row of v into out.
func (g *GroupIndex) colWords(c int, v *Vector, sel []int32, out []uint64) {
	if v.Typ == String {
		g.strs[c].words(v, sel, out)
		return
	}
	fixedWords(v, sel, out)
}

// FixedWord encodes row i of a fixed-width column as one word: two's
// complement, IEEE bits, 0/1. Two values share a word exactly when they are
// one group: -0.0 and +0.0 apart, a NaN only with its own payload.
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

// fixedWords writes the FixedWord of live rows of a fixed-width column v
// into out: row sel[j] of v under a selection, row j without one.
func fixedWords(v *Vector, sel []int32, out []uint64) {
	switch v.Typ {
	case Int64:
		if sel == nil {
			for j, x := range v.I64[:len(out)] {
				out[j] = uint64(x)
			}
		} else {
			for j, i := range sel {
				out[j] = uint64(v.I64[i])
			}
		}
	case Float64:
		if sel == nil {
			for j, x := range v.F64[:len(out)] {
				out[j] = math.Float64bits(x)
			}
		} else {
			for j, i := range sel {
				out[j] = math.Float64bits(v.F64[i])
			}
		}
	case Bool:
		if sel == nil {
			for j := range out {
				out[j] = FixedWord(v, j)
			}
		} else {
			for j, i := range sel {
				out[j] = FixedWord(v, int(i))
			}
		}
	}
}

// resolveHashed is Resolve's loop for a single group column past the dense
// array: the table's hit path inline, id for a first sight.
func (g *GroupIndex) resolveHashed(words []uint64, ids []int32) {
	for j, w := range words {
		if len(g.slots) != 0 {
			mask := uint64(len(g.slots) - 1)
			hit := int32(0)
			for s := (w * fibMul) >> g.shift; ; s = (s + 1) & mask {
				if hit = g.slots[s]; hit == 0 || g.keys[hit-1] == w {
					break
				}
			}
			if hit != 0 {
				ids[j] = hit - 1
				continue
			}
		}
		ids[j] = g.id(words[j : j+1])
	}
}

// id returns the group of the word tuple ws, opening it on first sight.
func (g *GroupIndex) id(ws []uint64) int32 {
	if at, small := g.densePos(ws); small {
		if id := g.dense[at]; id != 0 {
			return id - 1
		}
		g.dense[at] = int32(g.n) + 1
		return g.open(ws)
	}
	g.dense = nil // a word outgrew it: hashed from here on
	if 2*(g.n+1) > len(g.slots) {
		g.rehash(max(2*len(g.slots), groupSlotsMin))
	}
	nc := len(ws)
	mask := uint64(len(g.slots) - 1)
	for s := hashWords(ws) >> g.shift; ; s = (s + 1) & mask {
		id := int(g.slots[s])
		if id == 0 {
			g.slots[s] = int32(g.n) + 1
			return g.open(ws)
		}
		if wordsEqual(g.keys[(id-1)*nc:id*nc], ws) {
			return int32(id - 1)
		}
	}
}

// open records ws as the next group's tuple and returns its id.
func (g *GroupIndex) open(ws []uint64) int32 {
	g.keys = append(g.keys, ws...)
	g.n++
	return int32(g.n - 1)
}

// rehash rebuilds the hashed table at nSlots (a power of two) from keys:
// how it grows, and how an index that leaves the dense array gets one.
func (g *GroupIndex) rehash(nSlots int) {
	for nSlots < 2*(g.n+1) {
		nSlots *= 2
	}
	if cap(g.slots) >= nSlots { // a reset index regrowing into its old table
		g.slots = g.slots[:nSlots]
		clear(g.slots)
	} else {
		g.slots = make([]int32, nSlots)
	}
	g.shift = uint(64 - bits.TrailingZeros(uint(nSlots)))
	nc := len(g.cols)
	mask := uint64(nSlots - 1)
	for id := 0; id < g.n; id++ {
		s := hashWords(g.keys[id*nc:(id+1)*nc]) >> g.shift
		for g.slots[s] != 0 {
			s = (s + 1) & mask
		}
		g.slots[s] = int32(id) + 1
	}
}

// hashWords mixes a tuple so that its top bits depend on every word; for one
// word it is w·fibMul.
func hashWords(ws []uint64) uint64 {
	h := ws[0] * fibMul
	for _, w := range ws[1:] {
		h = (h ^ w) * fibMul
	}
	return h
}

func wordsEqual(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// Absorb opens every group of o — an index over the same columns — in g and
// returns, by o's ids, their ids in g. Groups new to g get the next ids in
// o's id order. The slice is scratch, valid until the next call on g.
func (g *GroupIndex) Absorb(o *GroupIndex) []int32 {
	if cap(g.merged) < o.n {
		g.merged = make([]int32, o.n)
	}
	ids := g.merged[:o.n]
	nc := len(g.cols)
	if nc == 0 {
		if o.n > 0 {
			g.Sole()
		}
		clear(ids)
		return ids
	}
	// o's local string codes in g's terms, once per distinct string.
	if g.to == nil {
		g.to = make([][]uint64, nc)
	}
	to := g.to
	for c, col := range g.out {
		if col.Typ != String {
			continue
		}
		to[c] = to[c][:0]
		for _, v := range o.strs[c].vals {
			to[c] = append(to[c], uint64(g.strs[c].intern(v, nil)))
		}
	}
	for oid := range ids {
		copy(g.tuple, o.keys[oid*nc:(oid+1)*nc])
		for c, t := range to {
			if t != nil {
				g.tuple[c] = t[g.tuple[c]]
			}
		}
		ids[oid] = g.id(g.tuple)
	}
	return ids
}

// KeyColumns returns every group's key values as typed columns, rows by id:
// the key columns of the sketch-join payload and of a table's GroupIDs.
func (g *GroupIndex) KeyColumns() []*Vector {
	nc := len(g.cols)
	cols := make([]*Vector, nc)
	for c := range cols {
		v := NewVector(g.out[c].Typ, g.n)
		for id := 0; id < g.n; id++ {
			w := g.keys[id*nc+c]
			switch v.Typ {
			case Int64:
				v.I64 = append(v.I64, int64(w))
			case Float64:
				v.F64 = append(v.F64, math.Float64frombits(w))
			case Bool:
				v.B = append(v.B, w != 0)
			case String:
				v.Str = append(v.Str, g.strs[c].vals[w])
			}
		}
		cols[c] = v
	}
	return cols
}

// KeyOrder returns KeyColumns and the ids sorted by their keys under
// compareKeyRows: the order GroupIDs numbers groups in and the sinks emit.
func (g *GroupIndex) KeyOrder() ([]*Vector, []int32) {
	keys, order := g.KeyColumns(), make([]int32, g.n)
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return compareKeyRows(keys, int(a), keys, int(b)) })
	return keys, order
}

// strCodes is one string group column's partial-local coding: distinct
// values numbered in first-seen order. A coded vector reaches its rows'
// local codes by array — its dictionary's codes translated lazily, one entry
// per dictionary value the partial actually meets — and an uncoded one by a
// map lookup per row. A partial normally sees one dictionary, its table
// column's; it sees a second after an append extended it, and none for a
// column past MaxDictSize.
type strCodes struct {
	vals  []string
	dicts []dictCodes

	// byVal finds a value's local code. It is used only once strings arrive
	// from a second source (mixed): while everything came from one
	// dictionary (sole), a value not yet translated is a value not yet seen,
	// because a dictionary's values are distinct.
	byVal map[string]int32
	mixed bool
	sole  *Dict
}

// dictCodes translates one dictionary: to[code] is the local code, -1 until
// the partial first meets the value; met lists the codes it has met, which
// reset turns back to -1.
type dictCodes struct {
	dict *Dict
	to   []int32
	met  []uint32
}

// reset forgets every value and keeps the memory: the values' array, the
// map, and one translation array per dictionary met, every code unseen.
func (s *strCodes) reset() {
	s.vals = s.vals[:0]
	clear(s.byVal)
	s.mixed, s.sole = false, nil
	for i := range s.dicts {
		dc := &s.dicts[i]
		for _, c := range dc.met {
			dc.to[c] = -1
		}
		dc.met = dc.met[:0]
	}
}

// words writes the local code of every live row of v into out.
func (s *strCodes) words(v *Vector, sel []int32, out []uint64) {
	if v.Dict == nil {
		if sel == nil {
			for j, x := range v.Str {
				out[j] = uint64(s.intern(x, nil))
			}
		} else {
			for j, i := range sel {
				out[j] = uint64(s.intern(v.Str[i], nil))
			}
		}
		return
	}
	dc := s.translation(v.Dict)
	to, codes := dc.to, v.Code
	if sel == nil {
		for j, c := range codes {
			lc := to[c]
			if lc < 0 {
				lc = s.meet(dc, c, v.Str[j])
			}
			out[j] = uint64(lc)
		}
	} else {
		for j, i := range sel {
			lc := to[codes[i]]
			if lc < 0 {
				lc = s.meet(dc, codes[i], v.Str[i])
			}
			out[j] = uint64(lc)
		}
	}
}

// meet translates code c of dc's dictionary, whose value is v, on first
// sight.
func (s *strCodes) meet(dc *dictCodes, c uint32, v string) int32 {
	lc := s.intern(v, dc.dict)
	dc.to[c] = lc
	dc.met = append(dc.met, c)
	return lc
}

// translation returns the code translation for dictionary d, starting an
// empty one on first sight. The pointer is valid until the next call.
func (s *strCodes) translation(d *Dict) *dictCodes {
	for i := range s.dicts {
		if s.dicts[i].dict == d {
			return &s.dicts[i]
		}
	}
	to := make([]int32, d.Len())
	for i := range to {
		to[i] = -1
	}
	s.dicts = append(s.dicts, dictCodes{dict: d, to: to})
	return &s.dicts[len(s.dicts)-1]
}

// intern returns v's local code, numbering it on first sight. from is the
// dictionary v was read through (nil: none) — see byVal.
func (s *strCodes) intern(v string, from *Dict) int32 {
	if !s.mixed {
		if len(s.vals) == 0 {
			s.sole = from
		}
		if from != nil && from == s.sole {
			s.vals = append(s.vals, v)
			return int32(len(s.vals) - 1)
		}
		s.mix()
	}
	lc, ok := s.byVal[v]
	if !ok {
		lc = int32(len(s.vals))
		s.vals = append(s.vals, v)
		s.byVal[v] = lc
	}
	return lc
}

// mix moves s to byVal for good, with every value seen so far.
func (s *strCodes) mix() {
	s.mixed = true
	if s.byVal == nil {
		s.byVal = make(map[string]int32, len(s.vals)+8)
	}
	for lc, x := range s.vals {
		s.byVal[x] = int32(lc)
	}
}
