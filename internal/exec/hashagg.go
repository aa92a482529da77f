package exec

import (
	"fmt"

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
// column a group's cells hold the Horvitz-Thompson terms of paper §IV-B's
// single-pass per-group variance tracking; on unweighted input they hold
// only sums and the results are exact (zero-width intervals).
type aggSpec struct {
	groupBy []string
	aggs    []plan.AggSpec

	keys     groupKeys
	aggIdx   []int // column index per agg, -1 for COUNT
	weightAt int   // index of synopses.WeightCol, -1 on unweighted input
	schema   storage.Schema

	// terms lays out the cells a group's row holds: only those the
	// aggregates read, over weighted or exact input.
	terms *stats.Terms
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
	kinds := make([]stats.AggKind, len(aggs))
	for k, ag := range aggs {
		kinds[k] = ag.Kind
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
		s.schema = append(s.schema, storage.Col{Name: ag.DefaultAlias(), Typ: storage.Float64})
	}
	s.weightAt = in.Index(synopses.WeightCol)
	s.terms = stats.NewTerms(kinds, s.weightAt >= 0)
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

// aggTable is one partial of an aggregation — a complete aggregation state
// that can fold batches and merge with tables built over disjoint input
// partitions. Groups are the slab ids of its group table, and group id's
// state is its row of cells in slab (stats.Slab): the terms its aggregates
// read (spec.terms) and no other, so a morsel that opens a thousand groups
// grows one float64 array, and a reset partial reuses it.
type aggTable struct {
	spec   *aggSpec
	groups groupTable
	slab   stats.Slab
}

func newAggTable(spec *aggSpec) *aggTable {
	return &aggTable{spec: spec, groups: newGroupTable(&spec.keys), slab: spec.terms.NewSlab()}
}

// reset implements partial: no group, and the group table's and slab's
// memory kept for the next morsel.
func (t *aggTable) reset() {
	t.groups.reset()
	t.slab.Reset()
}

// fold implements partial: the aggregation exchange charges every live row's
// bytes as shuffle plus one CPU tuple, then observes the batch. A batch
// whose producer's width sum stands (Batch.SummedWidth: a join's, without a
// selection) is charged that sum; any other's widths are summed by the
// fold's own pass.
func (t *aggTable) fold(b *storage.Batch, ctx *Context, sc *foldScratch) {
	ctx.Stats.CPUTuples += int64(b.Rows())
	if n, ok := b.SummedWidth(); ok {
		ctx.Stats.ShuffleBytes += n
		t.observe(b, nil, sc)
		return
	}
	ctx.Stats.ShuffleBytes += t.observe(b, b.Width, sc)
}

// observe folds one batch — honoring its selection vector — into the table,
// in the folding worker's scratch sc, and returns Σ width over its live rows
// (0 for a nil width).
//
// Group ids resolve first; then one stats.Terms.Fold folds every live row
// into its group's cells, row-major — the weight-column, column-type and
// selection dispatch hoisted out of the row loop or predictable in it. Each
// cell still adds the same terms in row order as a fold of
// GroupAccumulators one row at a time would, so the state is bit-identical
// to it.
func (t *aggTable) observe(b *storage.Batch, width []int32, sc *foldScratch) int64 {
	if b.Rows() == 0 {
		return 0
	}
	r := stats.Rows{Sel: b.Sel, N: b.Len()}
	if t.spec.weightAt >= 0 {
		r.W = b.Vecs[t.spec.weightAt].F64
	}
	if len(t.spec.groupBy) == 0 {
		t.groups.sole()
	} else {
		r.IDs = t.groups.resolve(b, sc.groups)
	}
	t.slab.Open(t.groups.len())
	// resolveAggSpec binds only numeric columns, so the two typed arms are
	// exhaustive; a COUNT binds none, and its column is never asked for.
	return t.spec.terms.Fold(&t.slab, r, func(k int) stats.Column {
		switch v := b.Vecs[t.spec.aggIdx[k]]; v.Typ {
		case storage.Float64:
			return stats.Column{F64: v.F64}
		case storage.Int64:
			return stats.Column{I64: v.I64}
		}
		return stats.Column{}
	}, width, &sc.conv)
}

// merge implements partial. Merging sums floating-point cells, so callers
// needing bit-reproducible output must merge partial tables in a
// deterministic order (the morsel executor merges in morsel index order). A
// group new to t takes o's row as it is — the group table gives the groups
// it opens the next ids in o's order, which is the slab's append order.
func (t *aggTable) merge(o partial) {
	ot := o.(*aggTable)
	t.slab.Merge(&ot.slab, t.groups.merge(&ot.groups))
}

// emit implements partial: the table as one batch with groups in key order
// (groupTable.emit), plus the row-aligned confidence intervals, each read
// off the group's accumulator as its cells assemble it. A global aggregate
// over empty input is one row: COUNT 0, zero-valued aggregates.
func (t *aggTable) emit(confidence float64) (*storage.Batch, [][]stats.Interval) {
	out := storage.NewBatch(t.spec.schema, t.groups.len())
	order := t.groups.emit(out.Vecs, nil) // slab ids, in key order
	t.slab.Open(t.groups.len())
	n := len(order)
	na := len(t.spec.aggs)
	ivs := make([]stats.Interval, n*na)
	intervals := make([][]stats.Interval, n)
	for i, id := range order {
		rowIv := ivs[i*na : (i+1)*na : (i+1)*na]
		for k := range rowIv {
			acc := t.spec.terms.Accumulator(&t.slab, id, k)
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
