package exec

import (
	"fmt"
	"math/bits"

	"github.com/tasterdb/taster/internal/storage"
)

// groupKeys is a sink's GROUP BY bound to its input schema, shared by every
// partial of the sink: the group columns' positions, or, folding by a
// table's numbering (groupSource), the id column's and the numbering, which
// also holds the groups' key values. bindGroups binds one (where names the
// sink, for the error).
type groupKeys struct {
	cols   []int
	schema storage.Schema // the group columns, as the sink emits them
	idAt   int
	ids    *storage.GroupIDs // nil: value-keyed
}

func bindGroups(in storage.Schema, groupBy []string, src *groupSource, where string) (groupKeys, error) {
	if src != nil {
		at := in.Index(groupIDCol)
		if at < 0 {
			return groupKeys{}, fmt.Errorf("exec: %s: the group id column is not in %v", where, in.Names())
		}
		return groupKeys{schema: src.keys.Clone(), idAt: at, ids: src.ids}, nil
	}
	var k groupKeys
	for _, g := range groupBy {
		i := in.Index(g)
		if i < 0 {
			return groupKeys{}, fmt.Errorf("exec: %s: group column %q not in %v", where, g, in.Names())
		}
		k.cols = append(k.cols, i)
		k.schema = append(k.schema, in[i])
	}
	return k, nil
}

// groupTable is the group numbering of one sink partial, which keeps each
// group's state in a slab at the group's slab id: dense, 0..n-1 in the order
// the partial opened the groups. Value-keyed, the slab ids are the ids of
// idx (storage.GroupIndex). Folding by a table's numbering, the rows arrive
// numbered already — by that table's group ids — and the table only turns
// those into slab ids: slabOf[d] is group d's slab id, -1 while unseen, and
// dimOf lists the slab's groups by their numbering's ids, in slab order; it
// is also the list of met entries reset turns back to -1. Both sinks hold
// one by value.
type groupTable struct {
	keys *groupKeys
	idx  storage.GroupIndex

	slabOf []int32
	dimOf  []int32
	merged []int32 // scratch: merge's result when numbered
}

func newGroupTable(keys *groupKeys) groupTable {
	return groupTable{keys: keys, idx: storage.NewGroupIndex(keys.cols, keys.schema)}
}

// reset forgets every group and keeps the memory: a reset table numbers
// groups exactly as a new one.
func (t *groupTable) reset() {
	t.idx.Reset()
	for _, d := range t.dimOf {
		t.slabOf[d] = -1
	}
	t.dimOf = t.dimOf[:0]
}

// len returns the number of groups opened so far.
func (t *groupTable) len() int {
	if t.keys.ids != nil {
		return len(t.dimOf)
	}
	return t.idx.Len()
}

// sole opens the one group of a table over no group columns.
func (t *groupTable) sole() { t.idx.Sole() }

// resolve returns the slab id of every live row of b, in live-row order,
// opening groups as it meets them. The ids are sc's memory.
func (t *groupTable) resolve(b *storage.Batch, sc *storage.ResolveScratch) []int32 {
	if t.keys.ids == nil {
		return t.idx.Resolve(b, sc)
	}
	ids := sc.IDs(b.Rows())
	t.slabIDs(b, ids)
	return ids
}

// translate allocates slabOf, every group unseen, on the partial's first
// batch or merge: a partial that never sees a row never pays for it.
func (t *groupTable) translate() {
	if t.slabOf == nil {
		t.slabOf = make([]int32, t.keys.ids.Len())
		for i := range t.slabOf {
			t.slabOf[i] = -1
		}
	}
}

// slab returns the slab id of the numbering's group d, opening it on first
// sight (translate has run).
func (t *groupTable) slab(d int32) int32 {
	s := t.slabOf[d]
	if s < 0 {
		s = int32(len(t.dimOf))
		t.slabOf[d] = s
		t.dimOf = append(t.dimOf, d)
	}
	return s
}

// slabIDs writes the slab id of every live row of b into ids, in live-row
// order, read from the group id column.
func (t *groupTable) slabIDs(b *storage.Batch, ids []int32) {
	t.translate()
	col := b.Vecs[t.keys.idAt].I64
	if b.Sel == nil {
		for j, d := range col {
			ids[j] = t.slab(int32(d))
		}
	} else {
		for j, i := range b.Sel {
			ids[j] = t.slab(int32(col[i]))
		}
	}
}

// merge opens every group of o — a table of the same sink — in t and
// returns, in o's slab order, each one's slab id in t. Groups new to t get
// the next slab ids in that order, so a sink appends their state to its
// slab as it meets them. The slice is scratch, valid until the next call.
func (t *groupTable) merge(o *groupTable) []int32 {
	if t.keys.ids == nil {
		return t.idx.Absorb(&o.idx)
	}
	t.translate()
	ids := t.merged[:0]
	for _, d := range o.dimOf {
		ids = append(ids, t.slab(d))
	}
	t.merged = ids
	return ids
}

// emit appends to out — the sink's output columns, led by the group
// columns — the key values of the groups keep admits (nil: every group), in
// key order (storage.CompareKey), and returns their slab ids in that order:
// folding by a numbering, whose ids run in key order, the met ids in
// ascending order (metInOrder); otherwise GroupIndex.KeyOrder's. Keys are unique either way, so the order
// is total: first-seen order — a function of morsel geometry — never shows.
// A table over no group columns — a global aggregate — has its one group
// even over no input (SQL), opened here; the sink gives it its empty state.
func (t *groupTable) emit(out []*storage.Vector, keep func(slab int32) bool) []int32 {
	if len(t.keys.schema) == 0 {
		t.sole()
	}
	// rows are the groups' rows of keys, in key order; a numbered table's
	// index holds no group.
	keys, rows := t.idx.KeyOrder()
	if g := t.keys.ids; g != nil {
		keys, rows = g.Keys, t.metInOrder()
	}
	order, kept := make([]int32, 0, len(rows)), rows[:0]
	for _, r := range rows {
		s := r
		if t.keys.ids != nil {
			s = t.slabOf[r]
		}
		if keep == nil || keep(s) {
			order, kept = append(order, s), append(kept, r)
		}
	}
	for c, k := range keys {
		out[c].AppendGather(k, kept)
	}
	return order
}

// metInOrder returns the met ids of a numbered table in ascending order,
// without a comparison sort: it marks each in a bitmap over the numbering
// and reads the bitmap back a word at a time, O(numbering/64 + met).
func (t *groupTable) metInOrder() []int32 {
	met := make([]uint64, (t.keys.ids.Len()+63)/64)
	for _, d := range t.dimOf {
		met[d>>6] |= 1 << (d & 63)
	}
	rows := make([]int32, 0, len(t.dimOf))
	for w, word := range met {
		for ; word != 0; word &= word - 1 {
			rows = append(rows, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return rows
}
