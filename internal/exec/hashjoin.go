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
// full rows'), and a query-owned build table copies only buildCols, the
// columns the index and the probe read. A sampled spine's weight column is
// a probe-side payload column like any other: the build side is never
// sampled, so a joined row's weight is its probe row's.
type joinSpec struct {
	leftKeys  []int
	rightKeys []int
	leftCols  []int // left columns copied to output
	rightCols []int
	buildCols []int // rightKeys ∪ rightCols, ascending: what the join reads of the build side

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
	j.buildCols = slices.Concat(j.rightKeys, j.rightCols)
	slices.Sort(j.buildCols)
	j.buildCols = slices.Compact(j.buildCols)
	j.schema = append(projectSchema(ls, j.leftCols), projectSchema(rs, j.rightCols)...)
	return j, nil
}

// keyTypesMatch refuses probe and build key columns, paired by position, of
// different types: a key index matches a probe row by its key's word or
// GroupKey bytes, which are equal only within one type (storage.KeyIndex).
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

// joinTable is the materialized, indexed build side of one join: the build
// rows and the storage.KeyIndex over their key columns, which keys every row
// by one word and finds a word's rows — ascending — without a Go map. The
// build is serial, so the table is the same at any worker count; once built
// it is immutable and safe for concurrent probing.
type joinTable struct {
	// rows are all build rows concatenated, in input order. rows.Vecs is
	// indexed by build-schema position and holds a vector for each column
	// the table keeps, nil for the others: a query-owned table keeps the
	// spec's buildCols, a cached one every column, because it serves every
	// later query of its key. rows.Width holds what each full row costs to
	// exchange, so a matched pair's width is two array reads.
	rows *storage.Batch
	idx  *storage.KeyIndex

	// shared marks a table owned by a JoinCache: it outlives the query that
	// built it and is probed by concurrent queries, so its rows are not
	// pool memory and release leaves it alone.
	shared bool
}

func (t *joinTable) empty() bool { return t == nil || t.rows == nil || len(t.rows.Width) == 0 }

// release returns a query-owned table's build rows to the pool; the rows of
// a cache-owned table stay with the cache.
func (t *joinTable) release(p *storage.VecPool) {
	if t == nil || t.shared || t.rows == nil {
		return
	}
	p.Release(t.rows)
	t.rows = nil
}

// drainBuild materializes an operator's full output in input order, charging
// shuffle bytes (the build side of a hash join is exchanged in the simulated
// cluster) for the whole rows. Only the columns at cols (nil: every column)
// are copied; the batch's other vectors are nil. Consumed batches are
// released: the joinTable keeps only the copied concatenation, which comes
// from the run's pool — or, with keep set, from the heap, because a
// JoinCache is about to own it past this query.
func drainBuild(op Operator, ctx *Context, cols []int, keep bool) (*storage.Batch, error) {
	// Collect first, copy second: the concatenation is then allocated at its
	// final size in one shot (row-at-a-time appends from zero capacity paid a
	// realloc cascade per query) and copied column-major.
	var bufs []*storage.Batch
	total := 0
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		ctx.Stats.ShuffleBytes += b.LiveWidth()
		bufs = append(bufs, b)
		total += b.Rows()
	}
	pool := ctx.Pool
	if keep {
		pool = nil // a nil pool allocates from the heap
	}
	rows := pool.GetBatchCols(op.Schema(), cols, total)
	rows.Width = pool.GetSel(total)
	for _, b := range bufs {
		if b.Sel != nil {
			for c, v := range rows.Vecs {
				if v != nil {
					v.AppendGather(b.Vecs[c], b.Sel)
				}
			}
			for _, i := range b.Sel {
				rows.Width = append(rows.Width, b.Width[i])
			}
		} else {
			for c, v := range rows.Vecs {
				if v != nil {
					v.Extend(b.Vecs[c])
				}
			}
			rows.Width = append(rows.Width, b.Width...)
		}
		ctx.Pool.Release(b)
	}
	return rows, nil
}

// buildJoinTable indexes the materialized build rows by their key columns.
func buildJoinTable(spec *joinSpec, rows *storage.Batch) *joinTable {
	return &joinTable{rows: rows, idx: storage.NewKeyIndex(rows.Vecs, spec.rightKeys)}
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

	// lrows/mrows are one KeyIndex.Probe call's (probe row, build row) pairs;
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
		p.lrows, p.mrows, p.at = p.table.idx.Probe(p.cur, p.spec.leftKeys, p.at, room, p.lrows, p.mrows)
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
// spec names and each pair's width — turning their live positions into cur's
// physical rows on the way.
func (p *joinProber) flush(out *storage.Batch) {
	build := p.table.rows
	lwid, rwid, sel := p.cur.Width, build.Width, p.cur.Sel
	for i, row := range p.lrows {
		if sel != nil {
			row = sel[row]
			p.lrows[i] = row
		}
		// A joined row is both its sides' rows side by side.
		out.Width = append(out.Width, lwid[row]+rwid[p.mrows[i]])
	}
	col := 0
	for _, lc := range p.spec.leftCols {
		out.Vecs[col].AppendGather(p.cur.Vecs[lc], p.lrows)
		col++
	}
	for _, rc := range p.spec.rightCols {
		out.Vecs[col].AppendGather(build.Vecs[rc], p.mrows)
		col++
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
