package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
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
// build table keeps every column (its cache identity and its charge are the
// full rows'), the probe gathers from it selectively.
//
// If either input carries a sampler weight column, the join merges them into
// a single trailing weight column whose value is the product of the sides'
// weights (joining two independent samples multiplies inclusion
// probabilities).
type joinSpec struct {
	leftKeys  []int
	rightKeys []int

	leftWeight  int // index of weight col in left schema, -1 if none
	rightWeight int
	leftCols    []int // left columns copied to output (weight excluded)
	rightCols   []int
	outWeights  bool
	// widthAdj is what a joined row's width is short of its two sides' sum:
	// 8 when both carry a weight column, since the two merge into one.
	widthAdj int32

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
	j.leftWeight = ls.Index(synopses.WeightCol)
	j.rightWeight = rs.Index(synopses.WeightCol)
	j.outWeights = j.leftWeight >= 0 || j.rightWeight >= 0
	if j.leftWeight >= 0 && j.rightWeight >= 0 {
		j.widthAdj = 8
	}
	payload := func(s storage.Schema, weight int) (cols []int) {
		for _, i := range neededCols(s, need) {
			if i != weight {
				cols = append(cols, i)
				j.schema = append(j.schema, s[i])
			}
		}
		return cols
	}
	j.leftCols = payload(ls, j.leftWeight)
	j.rightCols = payload(rs, j.rightWeight)
	if j.outWeights {
		j.schema = append(j.schema, storage.Col{Name: synopses.WeightCol, Typ: storage.Float64})
	}
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
	// rows are all build rows concatenated, in input order and full-width;
	// rows.Width holds what each costs to exchange, so a matched pair's width
	// is two array reads.
	rows *storage.Batch
	idx  *storage.KeyIndex

	// shared marks a table owned by a JoinCache: it outlives the query that
	// built it and is probed by concurrent queries, so its rows are not
	// pool memory and release leaves it alone.
	shared bool
}

func (t *joinTable) empty() bool { return t == nil || t.rows == nil || t.rows.Len() == 0 }

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
// cluster). Consumed batches are released: the joinTable keeps only the
// copied concatenation, which comes from the run's pool — or, with keep set,
// from the heap, because a JoinCache is about to own it past this query.
func drainBuild(op Operator, ctx *Context, keep bool) (*storage.Batch, error) {
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
	var rows *storage.Batch
	if keep {
		rows = storage.NewBatch(op.Schema(), total)
		rows.Width = make([]int32, 0, total)
	} else {
		rows = ctx.Pool.GetBatch(op.Schema(), total)
		rows.Width = ctx.Pool.GetSel(total)
	}
	for _, b := range bufs {
		if b.Sel != nil {
			for c, v := range rows.Vecs {
				v.AppendGather(b.Vecs[c], b.Sel)
			}
			for _, i := range b.Sel {
				rows.Width = append(rows.Width, b.Width[i])
			}
		} else {
			for c, v := range rows.Vecs {
				v.Extend(b.Vecs[c])
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
// output in chunks of at most joinBatchRows rows. It carries the probe
// position (current batch, row, and match offset) across calls, so a skewed
// key with huge fanout never inflates a single output batch.
type joinProber struct {
	spec  *joinSpec
	table *joinTable
	pool  *storage.VecPool

	cur      *storage.Batch
	curRow   int // position among cur's live rows
	matches  []int32
	matchPos int
	pending  bool
	key      []byte

	// lrows/mrows accumulate the (probe row, build row) pairs of the output
	// chunk under construction; flush gathers them into the output batch
	// column-major, one type dispatch per column instead of one per value.
	// lrows are physical row indices into cur — the probe walks cur under its
	// selection and never gathers it — so the pairs are flushed before cur is
	// released.
	lrows []int32
	mrows []int32
}

// next pulls probe batches via fetch until it has filled one output chunk (or
// the probe side is exhausted). It returns nil at end of stream and never
// returns an empty batch.
func (p *joinProber) next(fetch func() (*storage.Batch, error)) (*storage.Batch, error) {
	var out *storage.Batch
	for {
		if p.cur == nil {
			b, err := fetch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if out != nil && out.Len() > 0 {
					return out, nil
				}
				return nil, nil
			}
			if b.Rows() == 0 {
				p.pool.Release(b)
				continue
			}
			p.cur, p.curRow, p.pending = b, 0, false
		}
		for live := p.cur.Rows(); p.curRow < live; {
			row := p.curRow
			if p.cur.Sel != nil {
				row = int(p.cur.Sel[row])
			}
			if !p.pending {
				p.matches = p.matchesOf(row)
				p.matchPos = 0
				p.pending = true
			}
			if p.matchPos < len(p.matches) {
				if out == nil {
					out = p.pool.GetBatch(p.spec.schema, joinBatchRows)
					out.Width = p.pool.GetSel(joinBatchRows)
				}
				room := joinBatchRows - out.Len() - len(p.lrows)
				take := len(p.matches) - p.matchPos
				if take > room {
					take = room
				}
				for _, m := range p.matches[p.matchPos : p.matchPos+take] {
					p.lrows = append(p.lrows, int32(row))
					p.mrows = append(p.mrows, m)
				}
				p.matchPos += take
				if p.matchPos < len(p.matches) {
					// Chunk filled mid-fanout: emit it and resume this row's
					// remaining matches on the next call.
					p.flush(out)
					return out, nil
				}
			}
			p.pending = false
			p.curRow++
			if out != nil && out.Len()+len(p.lrows) >= joinBatchRows {
				p.flush(out)
				return out, nil
			}
		}
		// The probe batch is fully consumed; gather any pairs still
		// referencing it before its memory is recycled.
		p.flush(out)
		p.pool.Release(p.cur)
		p.cur = nil
	}
}

// matchesOf returns the build rows matching physical row `row` of cur.
func (p *joinProber) matchesOf(row int) []int32 {
	return p.table.idx.Match(p.cur.Vecs, p.spec.leftKeys, row, &p.key)
}

// flush gathers the accumulated pairs into out column-major — the payload
// columns the spec names, the merged weight, and each pair's width. Pair
// order is exactly the row-at-a-time emit order.
func (p *joinProber) flush(out *storage.Batch) {
	if len(p.lrows) == 0 {
		return
	}
	col := 0
	for _, lc := range p.spec.leftCols {
		out.Vecs[col].AppendGather(p.cur.Vecs[lc], p.lrows)
		col++
	}
	build := p.table.rows
	for _, rc := range p.spec.rightCols {
		out.Vecs[col].AppendGather(build.Vecs[rc], p.mrows)
		col++
	}
	if p.spec.outWeights {
		dst := out.Vecs[col].F64
		lw, rw := p.spec.leftWeight, p.spec.rightWeight
		for i, row := range p.lrows {
			w := 1.0
			if lw >= 0 {
				w *= p.cur.Vecs[lw].F64[row]
			}
			if rw >= 0 {
				w *= build.Vecs[rw].F64[p.mrows[i]]
			}
			dst = append(dst, w)
		}
		out.Vecs[col].F64 = dst
	}
	// A joined row is both its sides' rows side by side; two weight columns
	// merge into one.
	lwid, rwid, adj := p.cur.Width, build.Width, p.spec.widthAdj
	for i, row := range p.lrows {
		out.Width = append(out.Width, lwid[row]+rwid[p.mrows[i]]-adj)
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
