package exec

import (
	"fmt"
	"slices"

	"github.com/tasterdb/taster/internal/storage"
)

// joinBatchRows caps the number of joined rows emitted per output batch. A
// high-fanout join (skewed key) would otherwise accumulate every match for a
// probe batch into one unbounded output batch; the prober instead carries its
// probe position across Next calls and emits fixed-size chunks.
const joinBatchRows = storage.BatchSize

// joinSpec is the resolved column binding of one equi-join: key and payload
// column positions on both sides plus the output schema. It is computed once
// and shared by every prober of the join (one per morsel). The payload is
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
// different types: a key index matches a probe row by its key's words, which
// are equal only within one type (storage.KeyIndex).
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

// drainBuild drains op, the compiled build side over source, into the table
// of its survivors. The scan, its zone pruning and the filter run and charge
// as they always did, and every live row is charged its full width in
// shuffle bytes: the build side of a hash join is exchanged in the simulated
// cluster. A batch's rows are source rows from its Start on, which the scan
// set from the partition offsets. While batches arrive dense and back to
// back no mask is kept, so an unfiltered build — or a filter that keeps
// every row — has none; keys are the build key's column positions.
func drainBuild(op Operator, source *storage.Table, keys []int, ctx *Context) (*joinTable, error) {
	t := &joinTable{}
	next := 0 // with no mask yet, rows [0, next) of source are the survivors
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		ctx.Stats.ShuffleBytes += b.LiveWidth()
		t.rows += b.Rows()
		if t.mask == nil && b.Sel == nil && b.Start == next {
			next += b.Len()
		} else {
			t.prefixMask(source, keys, next)
			t.idx.Mark(t.mask, b.Start, b.Sel, b.Len())
		}
		ctx.Pool.Release(b)
	}
	if t.rows == 0 {
		return t, nil
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
	return t, nil
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

// joinProber streams probe batches against a built joinTable, emitting joined
// output in chunks of exactly joinBatchRows rows (the last one shorter). It
// carries its place in the current probe batch across calls, so a skewed key
// with huge fanout never inflates a single output batch.
type joinProber struct {
	spec  *joinSpec
	table *joinTable
	pool  *storage.VecPool

	cur *storage.Batch
	at  storage.ProbePos // where cur's next pair comes from

	// lrows/mrows are one KeyIndex.Probe call's (probe row, build row) pairs,
	// a build row being a row of the build table's source;
	// flush gathers them into the output batch column-major, one type
	// dispatch per column instead of one per value. lrows index cur's live
	// rows — the probe walks cur under its selection and never gathers it —
	// so the pairs are flushed before cur is released.
	lrows []int32
	mrows []int32
}

// next pulls probe batches via fetch until it has filled one output chunk (or
// the probe side is exhausted), pairing each batch's rows in one Probe call
// per chunk. It returns nil at end of stream and never returns an empty
// batch.
func (p *joinProber) next(fetch func() (*storage.Batch, error)) (*storage.Batch, error) {
	var out *storage.Batch
	for {
		if p.cur == nil {
			b, err := fetch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return out, nil
			}
			p.cur, p.at = b, storage.ProbePos{}
		}
		room := joinBatchRows
		if out != nil {
			room -= out.Len()
		}
		p.lrows, p.mrows, p.at = p.table.idx.Probe(p.cur, p.spec.leftKeys, p.table.mask, p.at, room, p.lrows, p.mrows)
		if len(p.lrows) > 0 {
			if out == nil {
				out = p.pool.GetBatch(p.spec.schema, joinBatchRows)
				out.Width = p.pool.GetSel(joinBatchRows)
			}
			p.flush(out)
			if out.Len() == joinBatchRows {
				// The chunk is full; the batch resumes at p.at next call.
				return out, nil
			}
		}
		// Probe stopped short of room: the batch is consumed.
		p.pool.Release(p.cur)
		p.cur = nil
	}
}

// flush gathers the pairs into out column-major — the payload columns the
// spec names, the build row's group id when the spec emits one, and each
// pair's width, summed into out.WidthSum as it goes so that the exchange
// above is charged without another pass — turning their live positions
// into cur's physical rows on the way.
func (p *joinProber) flush(out *storage.Batch) {
	lwid, rwid, sel := p.cur.Width, p.table.width, p.cur.Sel
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
		out.Vecs[col].AppendGather(p.cur.Vecs[lc], p.lrows)
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

// probe is the one probe loop (morselProbeOp.Next runs it per morsel): it
// streams child against the built table, charging probe shuffle bytes and
// output CPU to ctx. Over an empty table —
// only reached by a run that materializes a sampler byproduct, plain empty
// joins short-circuit before probing — it drains child so samplers below the
// join still observe their stream, and emits nothing.
func (p *joinProber) probe(child Operator, ctx *Context) (*storage.Batch, error) {
	if p.table.empty() {
		for {
			b, err := child.Next()
			if err != nil || b == nil {
				return nil, err
			}
			ctx.Stats.ShuffleBytes += b.LiveWidth()
			ctx.Pool.Release(b)
		}
	}
	out, err := p.next(func() (*storage.Batch, error) {
		b, err := child.Next()
		if b != nil {
			ctx.Stats.ShuffleBytes += b.LiveWidth()
		}
		return b, err
	})
	if out != nil {
		ctx.Stats.CPUTuples += int64(out.Len())
	}
	return out, err
}
