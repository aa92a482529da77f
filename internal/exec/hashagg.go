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

	groupIdx []int
	aggIdx   []int // column index per agg, -1 for COUNT
	weightAt int   // index of synopses.WeightCol, -1 on unweighted input
	schema   storage.Schema

	// Folding by a table's numbering (groupSource), the sink reads no group
	// column: idAt is the position of the group id column and groups the
	// numbering the ids are drawn from, which also holds the groups' key
	// values. groups is nil otherwise.
	idAt   int
	groups *storage.GroupIDs

	// empty is one group's accumulators before any row, by aggregate.
	empty []stats.GroupAccumulator
}

// resolveAggSpec binds group/aggregate columns against the input schema:
// the group columns themselves, or, folding by a table's numbering (src
// non-nil), the id column.
func resolveAggSpec(in storage.Schema, groupBy []string, aggs []plan.AggSpec, src *groupSource) (*aggSpec, error) {
	s := &aggSpec{groupBy: groupBy, aggs: aggs}
	if src != nil {
		if s.idAt = in.Index(groupIDCol); s.idAt < 0 {
			return nil, fmt.Errorf("exec: aggregate: the group id column is not in %v", in.Names())
		}
		s.groups = src.ids
		s.schema = append(s.schema, src.keys...)
	} else {
		for _, g := range groupBy {
			i := in.Index(g)
			if i < 0 {
				return nil, fmt.Errorf("exec: aggregate: group column %q not in %v", g, in.Names())
			}
			s.groupIdx = append(s.groupIdx, i)
			s.schema = append(s.schema, in[i])
		}
	}
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
// input partitions. Groups are the dense ids of idx (storage.GroupIndex) and
// their accumulators live by value in one slab, so a morsel that opens a
// thousand groups allocates a few growing arrays, not a thousand objects.
//
// Folding by a table's numbering (spec.groups), the rows arrive numbered
// already — by that table's group ids — and the table only turns those into
// its slab ids: slabOf[d] is group d's slab id, -1 while unseen, and dimOf
// lists the slab's groups by their numbering's ids, in slab order; it is
// also the list of met entries reset turns back to -1.
type aggTable struct {
	spec *aggSpec
	idx  storage.GroupIndex
	// accs holds group id's accumulator for aggregate k at
	// accs[id*len(spec.aggs)+k]; open keeps it as long as the groups.
	accs []stats.GroupAccumulator

	slabOf []int32
	dimOf  []int32
}

func newAggTable(spec *aggSpec) *aggTable {
	// spec.schema leads with the group columns.
	return &aggTable{spec: spec, idx: storage.NewGroupIndex(spec.groupIdx, spec.schema)}
}

// reset implements partial: no group, and the index's and slab's memory kept
// for the next morsel.
func (t *aggTable) reset() {
	t.idx.Reset()
	for _, d := range t.dimOf {
		t.slabOf[d] = -1
	}
	t.dimOf = t.dimOf[:0]
	t.accs = t.accs[:0]
}

// numGroups returns the number of groups opened so far.
func (t *aggTable) numGroups() int {
	if t.spec.groups != nil {
		return len(t.dimOf)
	}
	return t.idx.Len()
}

// translate allocates slabOf, every group unseen, on the partial's first
// batch or merge: a partial that never sees a row never pays for it.
func (t *aggTable) translate() {
	if t.slabOf == nil {
		t.slabOf = make([]int32, t.spec.groups.Len())
		for i := range t.slabOf {
			t.slabOf[i] = -1
		}
	}
}

// slab returns the slab id of the numbering's group d, opening it on first
// sight (translate has run).
func (t *aggTable) slab(d int32) int32 {
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
func (t *aggTable) slabIDs(b *storage.Batch, ids []int32) {
	t.translate()
	col := b.Vecs[t.spec.idAt].I64
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

// open gives the groups opened since the last call their empty
// accumulators. The slab doubles, but only the first morsels a worker runs
// grow it: a reset partial keeps its capacity, so later morsels of a
// high-cardinality GROUP BY open their thousand groups into memory already
// there.
func (t *aggTable) open() {
	want := t.numGroups() * len(t.spec.aggs)
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
// row's group id — through the group index, or, folding by a numbering, by
// translating its ids (slabIDs) — pass two folds each aggregate column in a tight loop with
// the weight-column and aggregate-column dispatch hoisted out of the row
// loop. Each GroupAccumulator still folds exactly the same (y, w) sequence
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

	if len(t.spec.groupIdx) == 0 && t.spec.groups == nil {
		// Ungrouped fast path: one group, each aggregate folds its raw
		// column slice directly.
		t.idx.Sole()
		t.open()
		for k := range t.spec.aggs {
			observeSingle(&t.accs[k], b, sel, t.spec.aggIdx[k], wcol)
		}
		return
	}

	sc := storage.BorrowScratch(b.Rows(), len(t.spec.groupIdx))
	var ids []int32
	if t.spec.groups != nil {
		ids = sc.IDs(b.Rows())
		t.slabIDs(b, ids)
	} else {
		ids = t.idx.Resolve(b, sc)
	}
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
// group new to t takes o's accumulators as they are — the groups absorb opens
// get the next ids in o's order, which is the slab's append order.
func (t *aggTable) merge(o partial) {
	ot := o.(*aggTable)
	if t.spec.groups != nil {
		t.mergeNumbered(ot)
		return
	}
	na, had := len(t.spec.aggs), t.idx.Len()
	ids := t.idx.Absorb(&ot.idx)
	t.accs = slices.Grow(t.accs, t.idx.Len()*na-len(t.accs))
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

// mergeNumbered is merge folding by a numbering: o's groups are found by
// their numbering's ids, and the ones new to t take the next slab ids in
// o's slab order.
func (t *aggTable) mergeNumbered(o *aggTable) {
	na := len(t.spec.aggs)
	t.translate()
	for oid, d := range o.dimOf {
		src := o.accs[oid*na : (oid+1)*na]
		if id := int(t.slab(d)); id*na < len(t.accs) {
			dst := t.accs[id*na:]
			for k := range src {
				dst[k].Merge(&src[k])
			}
			continue
		}
		t.accs = append(t.accs, src...)
	}
}

// emit implements partial: the table as one batch with groups in key order
// (storage.CompareKey), plus the row-aligned confidence intervals. Folding
// by a numbering, whose ids run in key order, that is the slab's ids sorted
// and the key columns gathered from the numbering; otherwise the group
// index's key values sorted. Keys are unique either way, so the order is
// total: first-seen order — a function of morsel geometry — never shows.
// SQL semantics: a global aggregate (no GROUP BY) over empty input still
// yields one row (COUNT 0, zero-valued aggregates).
func (t *aggTable) emit(confidence float64) (*storage.Batch, [][]stats.Interval) {
	if t.numGroups() == 0 && len(t.spec.groupBy) == 0 {
		t.idx.Sole()
		t.open()
	}
	n := t.numGroups()
	out := storage.NewBatch(t.spec.schema, n)
	order := make([]int32, n) // slab ids, in key order
	if g := t.spec.groups; g != nil {
		dims := slices.Clone(t.dimOf)
		slices.Sort(dims)
		for i, d := range dims {
			order[i] = t.slabOf[d]
		}
		for c, k := range g.Keys {
			out.Vecs[c].AppendGather(k, dims)
		}
	} else {
		keys := t.idx.KeyRows()
		for i, id := range sortRowsByValues(keys) {
			order[i] = int32(id)
			for c, v := range keys[id] {
				out.Vecs[c].Append(v)
			}
		}
	}
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
