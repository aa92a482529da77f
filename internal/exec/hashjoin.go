package exec

import (
	"fmt"
	"slices"

	"github.com/tasterdb/taster/internal/storage"
)

// joinBatchRows caps the number of joined rows emitted per output batch. A
// high-fanout join (skewed key) would otherwise accumulate every match for a
// probe batch into one unbounded output batch; the prober instead emits
// fixed-size chunks, resuming a probe batch mid-run when a chunk fills.
const joinBatchRows = storage.BatchSize

// joinSpec is the resolved column binding of one equi-join: key and payload
// column positions on both sides plus the output schema. It is computed once
// and shared by every prober of the join (one per worker). The payload is
// what something above the join reads, not what the two sides hold: the
// build side is drained whole (its cache identity and its charge are the
// full rows'), and the probe gathers the payload from the build table's own
// columns. A sampled spine's weight column is a probe-side payload column
// like any other: the build side is never sampled, so a joined row's weight
// is its probe row's.
type joinSpec struct {
	leftKeys  []int
	rightKeys []int
	leftCols  []int // left columns copied to output
	rightCols []int
	// groupIDs, on the join whose build table numbers an aggregate's groups
	// (groupSource), is that numbering's id by build row: the output's last
	// column is each joined row's id. Nil otherwise.
	groupIDs *storage.Vector

	schema storage.Schema
}

// resolveJoinSpec binds join key columns by name against both input schemas,
// and the output to the columns of either side that one of the names in need
// binds to (nil need: every column). Paired key columns must share a type, as
// planner.Query.Validate demands of every query it admits.
func resolveJoinSpec(ls, rs storage.Schema, leftKeys, rightKeys, need []string) (*joinSpec, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join needs equal, non-empty key lists")
	}
	j := &joinSpec{}
	for _, k := range leftKeys {
		i := ls.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: hash join: left key %q not in %v", k, ls.Names())
		}
		j.leftKeys = append(j.leftKeys, i)
	}
	for _, k := range rightKeys {
		i := rs.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: hash join: right key %q not in %v", k, rs.Names())
		}
		j.rightKeys = append(j.rightKeys, i)
	}
	if err := keyTypesMatch("hash join", projectSchema(ls, j.leftKeys), projectSchema(rs, j.rightKeys)); err != nil {
		return nil, err
	}
	j.leftCols = neededCols(ls, need)
	j.rightCols = neededCols(rs, need)
	j.schema = append(projectSchema(ls, j.leftCols), projectSchema(rs, j.rightCols)...)
	return j, nil
}

// emitGroups makes the join emit each joined row's group id in ids as one
// more output column, groupIDCol.
func (j *joinSpec) emitGroups(ids *storage.GroupIDs) {
	j.groupIDs = ids.ID
	j.schema = append(j.schema, storage.Col{Name: groupIDCol, Typ: storage.Int64})
}

// keyTypesMatch refuses probe and build key columns, paired by position, of
// different types: a key index reads a probe row's key as its own key
// columns' types, and two keys are equal only within one type
// (storage.KeyIndex).
func keyTypesMatch(op string, probe, build storage.Schema) error {
	if len(probe) != len(build) {
		return fmt.Errorf("exec: %s: probe keys %v do not pair with build keys %v", op, probe.Names(), build.Names())
	}
	for k, pc := range probe {
		if bc := build[k]; pc.Typ != bc.Typ {
			return fmt.Errorf("exec: %s: %s is %s but %s is %s; join keys must share a type", op, pc.Name, pc.Typ, bc.Name, bc.Typ)
		}
	}
	return nil
}

// joinTable is one join's build side σ(T) as the probe reads it: T's own
// columns and row widths, the KeyIndex of T's version over the build key
// (Table.KeyIndex: built once per version and key column set, not per
// query), and which of T's rows survived this build side's filter — a
// KeyMask over that index. Nothing is copied: a build costs its scan, its
// filter and one bit per survivor. The drain is serial, so the table is the
// same at any worker count; once built it is immutable and safe for
// concurrent probing, by the morsels of one query or, cached, of many.
type joinTable struct {
	vecs  []*storage.Vector // T's columns, by build-schema position
	width []int32           // what each row of T costs to exchange
	idx   *storage.KeyIndex // nil when nothing survived
	mask  storage.KeyMask   // the survivors; nil when every row of T survives
	rows  int               // how many survived
}

func (t *joinTable) empty() bool { return t == nil || t.rows == 0 }

// drainBuild drains the build side into the table of its survivors. The
// scan, its zone pruning and the filter run and charge as on the spine
// (buildSide.drain), and every live row is charged its full width in
// shuffle bytes: the build side of a hash join is exchanged in the
// simulated cluster. A batch's rows are source rows from its Start on,
// which the scan set from the partition offsets. While batches arrive dense
// and back to back no mask is kept, so an unfiltered build — or a filter
// that keeps every row — has none; keys are the build key's column
// positions.
func drainBuild(side *buildSide, keys []int, ctx *Context) *joinTable {
	source := side.table.leaf
	t := &joinTable{}
	next := 0 // with no mask yet, rows [0, next) of source are the survivors
	side.drain(ctx, func(b *storage.Batch) {
		ctx.Stats.ShuffleBytes += b.LiveWidth()
		t.rows += b.Rows()
		if t.mask == nil && b.Sel == nil && b.Start == next {
			next += b.Len()
		} else {
			t.prefixMask(source, keys, next)
			t.idx.Mark(t.mask, b.Start, b.Sel, b.Len())
		}
	})
	if t.rows == 0 {
		return t
	}
	if t.rows < source.NumRows() {
		t.prefixMask(source, keys, next)
	} else {
		t.mask = nil
	}
	t.idx, t.width = source.KeyIndex(keys), source.RowWidths()
	t.vecs = make([]*storage.Vector, len(source.Schema()))
	for c := range t.vecs {
		t.vecs[c] = source.Column(c)
	}
	return t
}

// prefixMask starts the table's mask, once, with rows [0, n) of source.
func (t *joinTable) prefixMask(source *storage.Table, keys []int, n int) {
	if t.mask != nil {
		return
	}
	t.idx = source.KeyIndex(keys)
	t.mask = t.idx.NewMask()
	t.idx.Mark(t.mask, 0, nil, n)
}

// joinProber is a Join stage's probe state, one per worker. A probe batch
// reaches it by one of two paths:
//
//   - a lookup (lookup), when the table's index is unique dense and unmasked
//     and the batch has no selection: every row of it finds its one build
//     row, so the joined batch is the probe batch's own carried columns
//     beside the build columns gathered by build row — look, handed on as
//     it is;
//   - pairs (fill) for any other batch, or one a key of which misses: its
//     live rows' (probe row, build row) pairs are gathered into the chunk of
//     at most joinBatchRows joined rows, so a skewed key with huge fanout
//     never inflates a single output batch. The stage
//     (morselWorker.probe) hands the chunk on up the spine each time it
//     fills and then empties it for the next; a partly filled chunk stays
//     here, across probe batches, until the next one fills it, a lookup
//     batch is to go up after it, or the morsel ends.
type joinProber struct {
	spec  *joinSpec
	table *joinTable

	out *storage.Batch // the chunk, the worker's; empty: nothing pending

	// look is a lookup's joined batch, a header the stage keeps: its leading
	// columns are the probe batch's carried ones, re-pointed per batch, and
	// the rest — the build columns and the group id — with its widths are
	// built's, the worker's. Both are nil when the table admits no lookup.
	look, built *storage.Batch

	// lrows/mrows are one KeyIndex.Probe call's (probe row, build row) pairs,
	// a build row being a row of the build table's source;
	// flush gathers them into the chunk column-major, one type dispatch per
	// column instead of one per value. lrows index the probe batch's live
	// rows — the probe walks it under its selection and never gathers it —
	// so the pairs are flushed while the batch is still valid. A lookup
	// writes its build rows to mrows. Both are empty between calls.
	lrows []int32
	mrows []int32
}

// newJoinProber is a worker's prober of join js, its buffers from pool and,
// when the join admits lookups, its lookup batch's header look.
func newJoinProber(js *pipelineJoinState, look *storage.Batch, pool *storage.VecPool) joinProber {
	spec, table := js.spec, js.table
	p := joinProber{spec: spec, table: table, out: pool.GetBatch(spec.schema, joinBatchRows),
		lrows: pool.GetSel(joinBatchRows), mrows: pool.GetSel(joinBatchRows)}
	if !table.empty() && table.mask == nil && table.idx.UniqueDense() {
		p.built = pool.GetBatch(spec.schema[len(spec.leftCols):], joinBatchRows)
		*look = storage.Batch{Schema: spec.schema, Vecs: append(make([]*storage.Vector, len(spec.leftCols), len(spec.schema)), p.built.Vecs...)}
		p.look = look
	}
	return p
}

// release hands the prober's buffers back to pool.
func (p *joinProber) release(pool *storage.VecPool) {
	pool.Release(p.out)
	pool.Release(p.built)
	pool.PutSel(p.lrows)
	pool.PutSel(p.mrows)
}

// lookup joins b as one batch when every row of it finds its build row, and
// returns it with what b's rows cost to exchange; nil when b takes pairs —
// it has a selection, the table admits no lookup, or a key misses. One pass
// over the keys writes the build rows (KeyIndex.Lookup); one over the rows
// sums b's widths and the joined rows', which it writes; then the build
// columns and the group id are gathered, and b's carried columns are handed
// on as they are. It leaves mrows empty, as fill expects it.
func (p *joinProber) lookup(b *storage.Batch) (*storage.Batch, int64) {
	if p.built == nil || b.Sel != nil {
		return nil, 0
	}
	live := b.Len()
	mrows, ok := p.table.idx.Lookup(b, p.spec.leftKeys, p.mrows)
	p.mrows = mrows[:0]
	if !ok {
		return nil, 0
	}
	look, built := p.look, p.built
	built.Reset()
	built.Width = slices.Grow(built.Width, live)[:live]
	lwid, rwid, widths := b.Width[:live], p.table.width, built.Width
	var in, sum int64
	for i, r := range mrows {
		// A joined row is both its sides' rows side by side.
		w := lwid[i] + rwid[r]
		widths[i] = w
		in += int64(lwid[i])
		sum += int64(w)
	}
	for c, lc := range p.spec.leftCols {
		look.Vecs[c] = b.Vecs[lc]
	}
	col := len(p.spec.leftCols)
	for _, rc := range p.spec.rightCols {
		look.Vecs[col].AppendGather(p.table.vecs[rc], mrows)
		col++
	}
	if ids := p.spec.groupIDs; ids != nil {
		look.Vecs[col].AppendGather(ids, mrows)
	}
	look.Width, look.WidthSum = widths, sum
	return look, in
}

// fill pairs b's live rows from at on into the chunk, until the chunk is
// full or b is consumed, in one Probe call. It returns where b's next pair
// comes from and whether the chunk is full; a chunk that is not full means b
// is consumed.
func (p *joinProber) fill(b *storage.Batch, at storage.ProbePos) (storage.ProbePos, bool) {
	p.lrows, p.mrows, at = p.table.idx.Probe(b, p.spec.leftKeys, p.table.mask, at, joinBatchRows-p.out.Len(), p.lrows, p.mrows)
	if len(p.lrows) > 0 {
		p.flush(b)
	}
	return at, p.out.Len() == joinBatchRows
}

// flush gathers the pairs of probe batch cur into the chunk column-major —
// the payload columns the spec names, the build row's group id when the
// spec emits one, and each pair's width, summed into the chunk's WidthSum
// as it goes so that the exchange above is charged without another pass —
// turning their live positions into cur's physical rows on the way.
func (p *joinProber) flush(cur *storage.Batch) {
	out := p.out
	lwid, rwid, sel := cur.Width, p.table.width, cur.Sel
	n := len(out.Width)
	out.Width = slices.Grow(out.Width, len(p.lrows))[:n+len(p.lrows)]
	widths, mrows := out.Width[n:], p.mrows[:len(p.lrows)]
	var sum int64
	for i, row := range p.lrows {
		if sel != nil {
			row = sel[row]
			p.lrows[i] = row
		}
		// A joined row is both its sides' rows side by side.
		w := lwid[row] + rwid[mrows[i]]
		widths[i] = w
		sum += int64(w)
	}
	out.WidthSum += sum
	col := 0
	for _, lc := range p.spec.leftCols {
		out.Vecs[col].AppendGather(cur.Vecs[lc], p.lrows)
		col++
	}
	for _, rc := range p.spec.rightCols {
		out.Vecs[col].AppendGather(p.table.vecs[rc], p.mrows)
		col++
	}
	if ids := p.spec.groupIDs; ids != nil {
		out.Vecs[col].AppendGather(ids, mrows)
	}
	p.lrows, p.mrows = p.lrows[:0], p.mrows[:0]
}
