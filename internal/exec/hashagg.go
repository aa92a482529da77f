package exec

import (
	"fmt"
	"math"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// aggSpec is the resolved column binding of one aggregation: group and
// aggregate column positions in the input schema plus the output schema. It
// is computed once and shared by every partial hash table of the aggregation
// (one per morsel, plus the table they merge into). It is the pipeline's
// aggregate sink: when the input carries the sampler weight column the
// accumulators switch to Horvitz-Thompson estimation with the single-pass
// per-group variance tracking of paper §IV-B; on unweighted input the results
// are exact (zero-width intervals).
type aggSpec struct {
	groupBy []string
	aggs    []plan.AggSpec

	groupIdx  []int
	aggIdx    []int // column index per agg, -1 for COUNT
	weightIdx int
	schema    storage.Schema
}

// resolveAggSpec binds group/aggregate columns against the input schema.
func resolveAggSpec(in storage.Schema, groupBy []string, aggs []plan.AggSpec) (*aggSpec, error) {
	s := &aggSpec{groupBy: groupBy, aggs: aggs}
	for _, g := range groupBy {
		i := in.Index(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: aggregate: group column %q not in %v", g, in.Names())
		}
		s.groupIdx = append(s.groupIdx, i)
		s.schema = append(s.schema, in[i])
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
		s.schema = append(s.schema, storage.Col{Name: ag.DefaultAlias(), Typ: storage.Float64})
	}
	s.weightIdx = in.Index(synopses.WeightCol)
	return s, nil
}

// aggReads names the spine columns an aggregation reads: its group columns
// and the column of every aggregate but COUNT, which folds none.
func aggReads(groupBy []string, aggs []plan.AggSpec) []string {
	reads := append([]string(nil), groupBy...)
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

// aggGroup is one group's state: its key values and one accumulator per
// aggregate, held by value — opening a group is one allocation for the lot,
// and a 4 096-row morsel of a high-cardinality GROUP BY opens a thousand.
type aggGroup struct {
	keyVals []storage.Value
	accs    []stats.GroupAccumulator
}

// aggTable is one hash table of group accumulators — a complete aggregation
// state that can observe batches and merge with tables built over disjoint
// input partitions.
//
// The canonical state is groups, keyed by the deterministic groupKey byte
// encoding — merge and emit only ever see that map. observe, the hot loop,
// avoids building a byte key per row whenever every group column is
// fixed-width (int64/float64/bool, at most two columns): rows resolve through
// fixed1/fixed2, word-keyed dictionaries caching the canonical group pointer,
// and only a dictionary miss pays for the byte key. The word encodings reuse
// groupKey's value identity (float keys by IEEE bits, so -0.0 and every NaN
// payload are distinct groups on both paths).
type aggTable struct {
	spec   *aggSpec
	groups map[string]*aggGroup
	key    []byte // scratch buffer

	fixed1    map[uint64]*aggGroup    // one fixed-width group column
	fixed2    map[[2]uint64]*aggGroup // two fixed-width group columns
	rowGroups []*aggGroup             // per-batch scratch: each live row's group
}

func newAggTable(spec *aggSpec) *aggTable {
	t := &aggTable{spec: spec, groups: make(map[string]*aggGroup, 64)}
	// spec.schema leads with the group columns, so schema[i] is the type of
	// group column i. String keys are variable-width and stay on the byte-key
	// path.
	fixed := len(spec.groupIdx) >= 1 && len(spec.groupIdx) <= 2
	for i := range spec.groupIdx {
		if spec.schema[i].Typ == storage.String {
			fixed = false
		}
	}
	if fixed {
		if len(spec.groupIdx) == 1 {
			t.fixed1 = make(map[uint64]*aggGroup, 64)
		} else {
			t.fixed2 = make(map[[2]uint64]*aggGroup, 64)
		}
	}
	return t
}

func (t *aggTable) newGroup(b *storage.Batch, row int) *aggGroup {
	g := &aggGroup{accs: make([]stats.GroupAccumulator, len(t.spec.aggs))}
	for k, ag := range t.spec.aggs {
		g.accs[k] = *stats.NewGroupAccumulator(ag.Kind)
	}
	if b != nil {
		for _, gi := range t.spec.groupIdx {
			g.keyVals = append(g.keyVals, b.Vecs[gi].Get(row))
		}
	}
	return g
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
// row's group pointer (hot path: fixed-width word dictionaries; fallback:
// per-row byte keys), pass two folds each aggregate column in a tight loop
// with the weight-column and aggregate-column dispatch hoisted out of the row
// loop. Each GroupAccumulator still executes Observe(y, w) on exactly the
// same (y, w) sequence as the historical row-major interpreted loop —
// accumulators are per (group, aggregate) and rows arrive in row order — so
// the accumulated floating-point state is bit-identical.
func (t *aggTable) observe(b *storage.Batch) {
	if b.Rows() == 0 {
		return
	}
	sel := b.Sel
	var wcol []float64
	if t.spec.weightIdx >= 0 {
		wcol = b.Vecs[t.spec.weightIdx].F64
	}

	if len(t.spec.groupIdx) == 0 {
		// Ungrouped fast path: one group, each aggregate folds its raw
		// column slice directly.
		g := t.singleGroup()
		for k := range t.spec.aggs {
			observeSingle(&g.accs[k], b, sel, t.spec.aggIdx[k], wcol)
		}
		return
	}

	gs := t.resolveGroups(b, sel)
	for k := range t.spec.aggs {
		observeGrouped(gs, k, b, sel, t.spec.aggIdx[k], wcol)
	}
}

// singleGroup returns the table's sole group (no GROUP BY), creating it on
// first use with the same empty key the byte-key path would produce.
func (t *aggTable) singleGroup() *aggGroup {
	g, ok := t.groups[""]
	if !ok {
		g = t.newGroup(nil, 0)
		t.groups[""] = g
	}
	return g
}

// canonicalGroup resolves row i's group through the canonical byte-key map,
// creating the group on first encounter.
func (t *aggTable) canonicalGroup(b *storage.Batch, i int) *aggGroup {
	t.key = groupKey(t.key, b.Vecs, t.spec.groupIdx, i)
	g, ok := t.groups[string(t.key)]
	if !ok {
		g = t.newGroup(b, i)
		t.groups[string(t.key)] = g
	}
	return g
}

// fixedWord encodes row i of a fixed-width group column as one word, with the
// same value identity as groupKey's byte encoding.
func fixedWord(v *storage.Vector, i int) uint64 {
	switch v.Typ {
	case storage.Int64:
		return uint64(v.I64[i])
	case storage.Float64:
		return math.Float64bits(v.F64[i])
	default: // Bool
		if v.B[i] {
			return 1
		}
		return 0
	}
}

// resolveGroups maps every live row to its group pointer (returned slice is
// the reused rowGroups scratch, indexed by live-row position). A run of equal
// keys — common on clustered input — resolves once.
func (t *aggTable) resolveGroups(b *storage.Batch, sel []int32) []*aggGroup {
	if cap(t.rowGroups) < b.Rows() {
		// One table lives for one morsel — four batches — so the scratch is
		// sized once rather than grown.
		t.rowGroups = make([]*aggGroup, 0, max(b.Rows(), storage.BatchSize))
	}
	gs := t.rowGroups[:0]
	switch {
	case t.fixed1 != nil:
		v := b.Vecs[t.spec.groupIdx[0]]
		var lastW uint64
		var lastG *aggGroup
		resolve := func(i int) {
			w := fixedWord(v, i)
			if lastG == nil || w != lastW {
				g, ok := t.fixed1[w]
				if !ok {
					g = t.canonicalGroup(b, i)
					t.fixed1[w] = g
				}
				lastW, lastG = w, g
			}
			gs = append(gs, lastG)
		}
		if sel == nil {
			n := b.Len()
			for i := 0; i < n; i++ {
				resolve(i)
			}
		} else {
			for _, i := range sel {
				resolve(int(i))
			}
		}
	case t.fixed2 != nil:
		v0 := b.Vecs[t.spec.groupIdx[0]]
		v1 := b.Vecs[t.spec.groupIdx[1]]
		var lastW [2]uint64
		var lastG *aggGroup
		resolve := func(i int) {
			w := [2]uint64{fixedWord(v0, i), fixedWord(v1, i)}
			if lastG == nil || w != lastW {
				g, ok := t.fixed2[w]
				if !ok {
					g = t.canonicalGroup(b, i)
					t.fixed2[w] = g
				}
				lastW, lastG = w, g
			}
			gs = append(gs, lastG)
		}
		if sel == nil {
			n := b.Len()
			for i := 0; i < n; i++ {
				resolve(i)
			}
		} else {
			for _, i := range sel {
				resolve(int(i))
			}
		}
	default:
		// Variable-width keys (string group columns or >2 columns): the
		// canonical byte-key per row, as the interpreted loop always did.
		if sel == nil {
			n := b.Len()
			for i := 0; i < n; i++ {
				gs = append(gs, t.canonicalGroup(b, i))
			}
		} else {
			for _, i := range sel {
				gs = append(gs, t.canonicalGroup(b, int(i)))
			}
		}
	}
	t.rowGroups = gs
	return gs
}

// observeSingle folds one aggregate column of the batch into a single
// accumulator — the ungrouped fast path. All dispatch (COUNT vs column,
// column type, weighted vs not, selection vs dense) happens before the row
// loop; each loop body is Observe over raw slice reads. resolveAggSpec binds
// only numeric columns, so the two typed arms are exhaustive.
func observeSingle(acc *stats.GroupAccumulator, b *storage.Batch, sel []int32, ci int, wcol []float64) {
	if ci < 0 { // COUNT: y = 1 per row
		switch {
		case wcol == nil && sel == nil:
			n := b.Len()
			for i := 0; i < n; i++ {
				acc.Observe(1, 1)
			}
		case wcol == nil:
			for range sel {
				acc.Observe(1, 1)
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
				acc.Observe(y, 1)
			}
		case wcol == nil:
			for _, i := range sel {
				acc.Observe(col[i], 1)
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
				acc.Observe(float64(y), 1)
			}
		case wcol == nil:
			for _, i := range sel {
				acc.Observe(float64(col[i]), 1)
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

// observeGrouped is observeSingle with per-row accumulators: gs holds each
// live row's group (live-row position aligned with sel), k selects the
// aggregate.
func observeGrouped(gs []*aggGroup, k int, b *storage.Batch, sel []int32, ci int, wcol []float64) {
	if ci < 0 { // COUNT: y = 1 per row
		switch {
		case wcol == nil: // gs is already the live rows, selection or not
			for _, g := range gs {
				g.accs[k].Observe(1, 1)
			}
		case sel == nil:
			for j, g := range gs {
				g.accs[k].Observe(1, wcol[j])
			}
		default:
			for j, i := range sel {
				gs[j].accs[k].Observe(1, wcol[i])
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
			for j, g := range gs {
				g.accs[k].Observe(col[j], 1)
			}
		case wcol == nil:
			for j, i := range sel {
				gs[j].accs[k].Observe(col[i], 1)
			}
		case sel == nil:
			for j, g := range gs {
				g.accs[k].Observe(col[j], wcol[j])
			}
		default:
			for j, i := range sel {
				gs[j].accs[k].Observe(col[i], wcol[i])
			}
		}
	case storage.Int64:
		col := v.I64
		switch {
		case wcol == nil && sel == nil:
			for j, g := range gs {
				g.accs[k].Observe(float64(col[j]), 1)
			}
		case wcol == nil:
			for j, i := range sel {
				gs[j].accs[k].Observe(float64(col[i]), 1)
			}
		case sel == nil:
			for j, g := range gs {
				g.accs[k].Observe(float64(col[j]), wcol[j])
			}
		default:
			for j, i := range sel {
				gs[j].accs[k].Observe(float64(col[i]), wcol[i])
			}
		}
	}
}

// merge implements partial. Accumulator merging sums floating-point state, so
// callers needing bit-reproducible output must merge partial tables in a
// deterministic order (the morsel executor merges in morsel index order).
func (t *aggTable) merge(o partial) {
	for key, og := range o.(*aggTable).groups {
		g, ok := t.groups[key]
		if !ok {
			t.groups[key] = og
			continue
		}
		for k := range g.accs {
			g.accs[k].Merge(&og.accs[k])
		}
	}
}

// emit implements partial: the table as one batch with groups in
// deterministic (sorted) order, plus the row-aligned confidence intervals.
// SQL semantics: a global aggregate (no GROUP BY) over empty input still
// yields one row (COUNT 0, zero-valued aggregates).
func (t *aggTable) emit(confidence float64) (*storage.Batch, [][]stats.Interval) {
	if len(t.groups) == 0 && len(t.spec.groupBy) == 0 {
		t.groups[""] = t.newGroup(nil, 0)
	}

	all := make([]*aggGroup, 0, len(t.groups))
	//taster:sorted emission order is fixed by sortRowsByValues below — group keys are unique, so the value sort is total and launders map order
	for _, g := range t.groups {
		all = append(all, g)
	}
	keys := make([][]storage.Value, len(all))
	for i, g := range all {
		keys[i] = g.keyVals
	}
	order := sortRowsByValues(keys)

	out := storage.NewBatch(t.spec.schema, len(all))
	intervals := make([][]stats.Interval, 0, len(all))
	for _, oi := range order {
		g := all[oi]
		for c, v := range g.keyVals {
			out.Vecs[c].Append(v)
		}
		rowIv := make([]stats.Interval, len(t.spec.aggs))
		for k := range g.accs {
			iv := g.accs[k].Interval(confidence)
			rowIv[k] = iv
			out.Vecs[len(t.spec.groupIdx)+k].F64 = append(out.Vecs[len(t.spec.groupIdx)+k].F64, iv.Estimate)
		}
		intervals = append(intervals, rowIv)
	}
	return out, intervals
}
