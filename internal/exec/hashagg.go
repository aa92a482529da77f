package exec

import (
	"fmt"
	"slices"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// aggSpec is the resolved column binding of one aggregation: group and
// aggregate column positions in the input schema plus the output schema. It
// is computed once and shared by every partial hash table of the aggregation
// (each folding one morsel at a time, plus the table they merge into). It is
// the pipeline's aggregate sink: when the input carries the sampler weight
// column the accumulators switch to Horvitz-Thompson estimation with the
// single-pass per-group variance tracking of paper §IV-B; on unweighted input
// the results are exact (zero-width intervals).
type aggSpec struct {
	groupBy []string
	aggs    []plan.AggSpec

	keys     groupKeys
	aggIdx   []int // column index per agg, -1 for COUNT
	weightAt int   // index of synopses.WeightCol, -1 on unweighted input
	schema   storage.Schema

	// empty is one group's accumulators before any row, by aggregate.
	empty []stats.GroupAccumulator
}

// resolveAggSpec binds group/aggregate columns against the input schema:
// the group columns themselves, or, folding by a table's numbering (src
// non-nil), the id column (bindGroups).
func resolveAggSpec(in storage.Schema, groupBy []string, aggs []plan.AggSpec, src *groupSource) (*aggSpec, error) {
	keys, err := bindGroups(in, groupBy, src, "aggregate")
	if err != nil {
		return nil, err
	}
	s := &aggSpec{groupBy: groupBy, aggs: aggs, keys: keys, schema: keys.schema}
	for _, ag := range aggs {
		idx := -1
		switch {
		case ag.Kind == stats.Count:
			// Storage has no NULLs and a COUNT accumulator reads only the
			// row weights, so COUNT(col) is COUNT(*) under its own alias: it
			// reads — and so binds — no column, whatever the column's type
			// (planner.Query.Validate has checked the column exists).
		case ag.Col == "":
			return nil, fmt.Errorf("exec: %s requires a column", ag.Kind)
		default:
			if idx = in.Index(ag.Col); idx < 0 {
				return nil, fmt.Errorf("exec: aggregate: column %q not in %v", ag.Col, in.Names())
			}
			if !in[idx].Typ.Numeric() {
				return nil, fmt.Errorf("exec: %s over non-numeric column %q", ag.Kind, ag.Col)
			}
		}
		s.aggIdx = append(s.aggIdx, idx)
		s.empty = append(s.empty, *stats.NewGroupAccumulator(ag.Kind))
		s.schema = append(s.schema, storage.Col{Name: ag.DefaultAlias(), Typ: storage.Float64})
	}
	s.weightAt = in.Index(synopses.WeightCol)
	return s, nil
}

// aggReads names the spine columns an aggregation reads besides its group
// columns: the column of every aggregate but COUNT, which folds none.
func aggReads(aggs []plan.AggSpec) []string {
	var reads []string
	for _, ag := range aggs {
		if ag.Kind != stats.Count && ag.Col != "" {
			reads = append(reads, ag.Col)
		}
	}
	return reads
}

// outSchema implements sink.
func (s *aggSpec) outSchema() storage.Schema { return s.schema }

// prepare implements sink: an aggregation has nothing to build.
func (s *aggSpec) prepare(*Context) error { return nil }

// newPartial implements sink.
func (s *aggSpec) newPartial() partial { return newAggTable(s) }

// aggTable is one hash table of group accumulators — a complete aggregation
// state that can observe batches and merge with tables built over disjoint
// input partitions. Groups are the slab ids of its group table and their
// accumulators live by value in one slab, so a morsel that opens a thousand
// groups allocates a few growing arrays, not a thousand objects.
type aggTable struct {
	spec   *aggSpec
	groups groupTable
	// accs holds group id's accumulator for aggregate k at
	// accs[id*len(spec.aggs)+k]; open keeps it as long as the groups.
	accs []stats.GroupAccumulator
}

func newAggTable(spec *aggSpec) *aggTable {
	return &aggTable{spec: spec, groups: newGroupTable(&spec.keys)}
}

// reset implements partial: no group, and the group table's and slab's
// memory kept for the next morsel.
func (t *aggTable) reset() {
	t.groups.reset()
	t.accs = t.accs[:0]
}

// open gives the groups opened since the last call their empty
// accumulators. The slab doubles, but only the first morsels a worker runs
// grow it: a reset partial keeps its capacity, so later morsels of a
// high-cardinality GROUP BY open their thousand groups into memory already
// there.
func (t *aggTable) open() {
	want := t.groups.len() * len(t.spec.aggs)
	if cap(t.accs) < want {
		t.accs = slices.Grow(t.accs, max(want, 2*cap(t.accs))-len(t.accs))
	}
	had := len(t.accs)
	t.accs = t.accs[:want]
	for i := had; i < want; i += len(t.spec.empty) {
		copy(t.accs[i:], t.spec.empty)
	}
}

// fold implements partial: the aggregation exchange charges every live row's
// bytes as shuffle plus one CPU tuple, then observes the batch.
func (t *aggTable) fold(b *storage.Batch, ctx *Context) {
	ctx.Stats.ShuffleBytes += b.LiveWidth()
	ctx.Stats.CPUTuples += int64(b.Rows())
	t.observe(b)
}

// observe folds one batch — honoring its selection vector — into the table.
//
// The loop is two-pass and aggregate-major: pass one resolves every live
// row's group id through the group table, pass two folds each aggregate
// column in a tight loop with the weight-column and aggregate-column
// dispatch hoisted out of the row loop. Each GroupAccumulator still folds exactly the same (y, w) sequence
// as the historical row-major interpreted loop — accumulators are per
// (group, aggregate) and rows arrive in row order — so the accumulated
// floating-point state is bit-identical. Unweighted input folds through
// ObserveExact: w ≡ 1, so the sums are the same and no variance term is
// formed.
func (t *aggTable) observe(b *storage.Batch) {
	if b.Rows() == 0 {
		return
	}
	sel := b.Sel
	var wcol []float64
	if t.spec.weightAt >= 0 {
		wcol = b.Vecs[t.spec.weightAt].F64
	}

	if len(t.spec.groupBy) == 0 {
		// Ungrouped fast path: one group, each aggregate folds its raw
		// column slice directly.
		t.groups.sole()
		t.open()
		for k := range t.spec.aggs {
			observeSingle(&t.accs[k], b, sel, t.spec.aggIdx[k], wcol)
		}
		return
	}

	sc := storage.BorrowScratch(b.Rows(), len(t.spec.keys.cols))
	ids := t.groups.resolve(b, sc)
	t.open()
	for k := range t.spec.aggs {
		observeGrouped(t.accs[k:], len(t.spec.aggs), ids, b, sel, t.spec.aggIdx[k], wcol)
	}
	storage.ReturnScratch(sc)
}

// observeSingle folds one aggregate column of the batch into a single
// accumulator — the ungrouped fast path. All dispatch (COUNT vs column,
// column type, weighted vs not, selection vs dense) happens before the row
// loop; each loop body is Observe (ObserveExact unweighted) over raw slice
// reads. resolveAggSpec binds
// only numeric columns, so the two typed arms are exhaustive.
func observeSingle(acc *stats.GroupAccumulator, b *storage.Batch, sel []int32, ci int, wcol []float64) {
	if ci < 0 { // COUNT: y = 1 per row
		switch {
		case wcol == nil && sel == nil:
			n := b.Len()
			for i := 0; i < n; i++ {
				acc.ObserveExact(1)
			}
		case wcol == nil:
			for range sel {
				acc.ObserveExact(1)
			}
		case sel == nil:
			for _, w := range wcol {
				acc.Observe(1, w)
			}
		default:
			for _, i := range sel {
				acc.Observe(1, wcol[i])
			}
		}
		return
	}
	v := b.Vecs[ci]
	switch v.Typ {
	case storage.Float64:
		col := v.F64
		switch {
		case wcol == nil && sel == nil:
			for _, y := range col {
				acc.ObserveExact(y)
			}
		case wcol == nil:
			for _, i := range sel {
				acc.ObserveExact(col[i])
			}
		case sel == nil:
			for i, y := range col {
				acc.Observe(y, wcol[i])
			}
		default:
			for _, i := range sel {
				acc.Observe(col[i], wcol[i])
			}
		}
	case storage.Int64:
		col := v.I64
		switch {
		case wcol == nil && sel == nil:
			for _, y := range col {
				acc.ObserveExact(float64(y))
			}
		case wcol == nil:
			for _, i := range sel {
				acc.ObserveExact(float64(col[i]))
			}
		case sel == nil:
			for i, y := range col {
				acc.Observe(float64(y), wcol[i])
			}
		default:
			for _, i := range sel {
				acc.Observe(float64(col[i]), wcol[i])
			}
		}
	}
}

// observeGrouped is observeSingle with per-row accumulators: ids holds each
// live row's group (live-row position aligned with sel), and group id's
// accumulator for the aggregate being folded is accs[id*stride] — the slab
// from that aggregate's offset on.
func observeGrouped(accs []stats.GroupAccumulator, stride int, ids []int32, b *storage.Batch, sel []int32, ci int, wcol []float64) {
	if ci < 0 { // COUNT: y = 1 per row
		switch {
		case wcol == nil: // ids is already the live rows, selection or not
			for _, g := range ids {
				accs[int(g)*stride].ObserveExact(1)
			}
		case sel == nil:
			for j, g := range ids {
				accs[int(g)*stride].Observe(1, wcol[j])
			}
		default:
			for j, i := range sel {
				accs[int(ids[j])*stride].Observe(1, wcol[i])
			}
		}
		return
	}
	v := b.Vecs[ci]
	switch v.Typ {
	case storage.Float64:
		col := v.F64
		switch {
		case wcol == nil && sel == nil:
			for j, g := range ids {
				accs[int(g)*stride].ObserveExact(col[j])
			}
		case wcol == nil:
			for j, i := range sel {
				accs[int(ids[j])*stride].ObserveExact(col[i])
			}
		case sel == nil:
			for j, g := range ids {
				accs[int(g)*stride].Observe(col[j], wcol[j])
			}
		default:
			for j, i := range sel {
				accs[int(ids[j])*stride].Observe(col[i], wcol[i])
			}
		}
	case storage.Int64:
		col := v.I64
		switch {
		case wcol == nil && sel == nil:
			for j, g := range ids {
				accs[int(g)*stride].ObserveExact(float64(col[j]))
			}
		case wcol == nil:
			for j, i := range sel {
				accs[int(ids[j])*stride].ObserveExact(float64(col[i]))
			}
		case sel == nil:
			for j, g := range ids {
				accs[int(g)*stride].Observe(float64(col[j]), wcol[j])
			}
		default:
			for j, i := range sel {
				accs[int(ids[j])*stride].Observe(float64(col[i]), wcol[i])
			}
		}
	}
}

// merge implements partial. Accumulator merging sums floating-point state, so
// callers needing bit-reproducible output must merge partial tables in a
// deterministic order (the morsel executor merges in morsel index order). A
// group new to t takes o's accumulators as they are — the group table gives
// the groups it opens the next ids in o's order, which is the slab's append
// order.
func (t *aggTable) merge(o partial) {
	ot := o.(*aggTable)
	na, had := len(t.spec.aggs), t.groups.len()
	ids := t.groups.merge(&ot.groups)
	t.accs = slices.Grow(t.accs, t.groups.len()*na-len(t.accs))
	for oid, id := range ids {
		src := ot.accs[oid*na : (oid+1)*na]
		if int(id) >= had {
			t.accs = append(t.accs, src...)
			continue
		}
		dst := t.accs[int(id)*na:]
		for k := range src {
			dst[k].Merge(&src[k])
		}
	}
}

// emit implements partial: the table as one batch with groups in key order
// (groupTable.emit), plus the row-aligned confidence intervals. A global
// aggregate over empty input is one row: COUNT 0, zero-valued aggregates.
func (t *aggTable) emit(confidence float64) (*storage.Batch, [][]stats.Interval) {
	out := storage.NewBatch(t.spec.schema, t.groups.len())
	order := t.groups.emit(out.Vecs, nil) // slab ids, in key order
	t.open()
	n := len(order)
	na := len(t.spec.aggs)
	ivs := make([]stats.Interval, n*na)
	intervals := make([][]stats.Interval, n)
	for i, id := range order {
		rowIv := ivs[i*na : (i+1)*na : (i+1)*na]
		for k := range rowIv {
			acc := &t.accs[int(id)*na+k]
			// Unweighted input is exact: its interval has no width, whatever
			// the values (an infinite y would make z·√Var NaN).
			iv := stats.Interval{Estimate: acc.Estimate()}
			if t.spec.weightAt >= 0 {
				iv = acc.Interval(confidence)
			}
			rowIv[k] = iv
			cell := out.Vecs[len(t.spec.groupBy)+k]
			cell.F64 = append(cell.F64, iv.Estimate)
		}
		intervals[i] = rowIv
	}
	return out, intervals
}
