package exec

import (
	"fmt"
	"slices"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// sketchSink is the pipeline's sketch-join sink (paper §II): the build side
// is summarized into a count-min sketch keyed by the join key (reused from
// the warehouse when available, built inline otherwise), and the spine's
// probe rows look their key up in it while grouping on probe-side columns.
// The whole Join+Aggregate pair collapses into this one terminal.
type sketchSink struct {
	node   *plan.SketchJoin
	schema storage.Schema
	seed   uint64

	probeKeyIdx []int
	groupIdx    []int
	aggProbeIdx []int // probe-side column per agg, -1 when agg uses build side
	weightIdx   int

	// The inline build, nil when node.Sketch is already materialized: the
	// compiled leaf chain with its key, aggregate (-1: counts only) and
	// weight (-1: unweighted) columns.
	build       Operator
	buildKeyIdx []int
	buildAggIdx int
	buildWIdx   int

	// Set by prepare: the sketch every probe row reads, and the expected
	// overestimate of one point query against its count and sum planes.
	sketch     *synopses.SketchJoin
	errC, errS float64
}

// newSketchSink binds the node's columns against the probe spine's output
// schema in and, for an inline build, compiles the build leaf chain; seed
// keys the inline sketch's hash functions.
func newSketchSink(node *plan.SketchJoin, in storage.Schema, seed uint64, ctx *Context) (*sketchSink, error) {
	s := &sketchSink{node: node, seed: seed}
	for _, k := range node.ProbeKeys {
		i := in.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: probe key %q not in %v", k, in.Names())
		}
		s.probeKeyIdx = append(s.probeKeyIdx, i)
	}
	for _, g := range node.GroupBy {
		i := in.Index(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: group column %q not in %v", g, in.Names())
		}
		s.groupIdx = append(s.groupIdx, i)
		s.schema = append(s.schema, in[i])
	}
	for _, ag := range node.Aggs {
		idx := -1
		// COUNT(col) is COUNT(*) (see resolveAggSpec): it reads the sketch's
		// count plane and no column on either side.
		if ag.Kind != stats.Count && ag.Col != "" && ag.Col != node.AggCol {
			idx = in.Index(ag.Col)
			if idx < 0 {
				return nil, fmt.Errorf("exec: sketch join: aggregate column %q neither build agg nor probe column", ag.Col)
			}
		}
		s.aggProbeIdx = append(s.aggProbeIdx, idx)
		s.schema = append(s.schema, storage.Col{Name: ag.DefaultAlias(), Typ: storage.Float64})
	}
	s.weightIdx = in.Index(synopses.WeightCol)
	if node.Sketch != nil {
		return s, nil
	}

	if node.Build == nil {
		return nil, fmt.Errorf("exec: sketch join: no materialized sketch and no build input")
	}
	if node.CMWidth < 1 || node.CMDepth < 1 {
		return nil, fmt.Errorf("exec: sketch join: inline build needs a count-min geometry, got %d×%d", node.CMWidth, node.CMDepth)
	}
	build, err := Compile(node.Build, seed*131+13, ctx)
	if err != nil {
		return nil, err
	}
	bs := build.Schema()
	for _, k := range node.BuildKeys {
		i := bs.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: build key %q not in %v", k, bs.Names())
		}
		s.buildKeyIdx = append(s.buildKeyIdx, i)
	}
	s.buildAggIdx = -1
	if node.AggCol != "" {
		i := bs.Index(node.AggCol)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: build agg column %q not in %v", node.AggCol, bs.Names())
		}
		// The planner names the build column of every aggregate, COUNT
		// included, and only COUNT may name a non-numeric one (Validate
		// refuses the rest): such a sketch carries counts and no sums.
		if bs[i].Typ.Numeric() {
			s.buildAggIdx = i
		}
	}
	s.buildWIdx = bs.Index(synopses.WeightCol)
	s.build = build
	return s, nil
}

// sketchReads names the probe-spine columns a sketch-join reads: its probe
// keys, its group columns and the probe-side aggregate columns (an aggregate
// over the build column reads the sketch's sum plane, and COUNT its count
// plane).
func sketchReads(node *plan.SketchJoin) []string {
	reads := append(append([]string(nil), node.ProbeKeys...), node.GroupBy...)
	for _, ag := range node.Aggs {
		if ag.Kind != stats.Count && ag.Col != "" && ag.Col != node.AggCol {
			reads = append(reads, ag.Col)
		}
	}
	return reads
}

// outSchema implements sink.
func (s *sketchSink) outSchema() storage.Schema { return s.schema }

// prepare implements sink. An inline build is what a join's build side is:
// the compiled leaf chain drained once, serially, before the pool starts —
// every row costs d cell updates in each plane and the result is one small
// shared structure, so there is nothing for morsels to split. The finished
// sketch is recorded for the tuner to keep.
func (s *sketchSink) prepare(ctx *Context) error {
	s.sketch = s.node.Sketch
	if s.build != nil {
		s.sketch = synopses.NewSketchJoin(s.node.CMWidth, s.node.CMDepth, s.node.BuildKeys, s.node.AggCol, s.seed)
		err := s.drainBuild(ctx)
		if cerr := s.build.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		ctx.Stats.BuiltSketches = append(ctx.Stats.BuiltSketches, BuiltSketch{Op: s.node, Sketch: s.sketch})
	}
	s.errC = s.sketch.Count.ExpectedErrorBound()
	s.errS = s.sketch.Sum.ExpectedErrorBound()
	return nil
}

// drainBuild adds every build row to the sketch, one CPU tuple each.
func (s *sketchSink) drainBuild(ctx *Context) error {
	if err := s.build.Open(); err != nil {
		return err
	}
	for {
		b, err := s.build.Next()
		if err != nil || b == nil {
			return err
		}
		b = b.Materialize(ctx.Pool)
		ctx.Stats.CPUTuples += int64(b.Len())
		for i := 0; i < b.Len(); i++ {
			w := 1.0
			if s.buildWIdx >= 0 {
				w = b.Vecs[s.buildWIdx].F64[i]
			}
			s.sketch.AddRow(b.Vecs, s.buildKeyIdx, s.buildAggIdx, i, w)
		}
		ctx.Pool.Release(b)
	}
}

// newPartial implements sink.
func (s *sketchSink) newPartial() partial {
	return &sketchTable{sink: s, idx: newGroupIndex(s.groupIdx, s.schema)}
}

// sjSums is one group's running sketch-join state, a row of sketchTable's
// slab; every cell is a sum over the group's probe rows.
type sjSums []float64

// The cells of an sjSums row: four sums every group carries, then two per
// aggregate k (zero, and never read, for an aggregate over the build column).
const (
	sjDen    = iota // Σ w·count(key): COUNT(*) of the join result
	sjNum           // Σ w·sum(key): SUM(build agg col)
	sjErrDen        // the expected overestimate inside sjDen
	sjErrNum        // and inside sjNum
	sjPerAgg        // cells before the per-aggregate pairs
)

// probe is Σ w·count(key)·y over aggregate k's probe-side column y, errProbe
// the expected overestimate inside it.
func (g sjSums) probe(k int) float64    { return g[sjPerAgg+2*k] }
func (g sjSums) errProbe(k int) float64 { return g[sjPerAgg+2*k+1] }

// sketchTable is the sketch sink's partial: groups are the dense ids of idx
// (groupindex.go) over the probe-side grouping columns, and group id's sums
// are the stride cells of sums from id*stride on.
type sketchTable struct {
	sink *sketchSink
	idx  groupIndex
	sums []float64
}

func (t *sketchTable) stride() int { return sjPerAgg + 2*len(t.sink.aggProbeIdx) }

// fold implements partial: one sketch lookup and one CPU tuple per live
// probe row, and — unlike the aggregate sink — no exchange: the sketch is
// broadcast, the probe rows stay where they are. Rows fold in two passes, as
// aggTable.observe does: the row pass resolves groups, reads the sketch and
// folds the four sums every group carries; then each probe-side aggregate
// column folds in a loop of its own over a typed slice. Every cell still
// adds the same terms in row order, so the sums are bit-identical to a
// row-major fold.
func (t *sketchTable) fold(b *storage.Batch, ctx *Context) {
	s := t.sink
	n := b.Rows()
	ctx.Stats.CPUTuples += int64(n)
	if n == 0 {
		return
	}
	sc := borrowScratch(n, len(s.groupIdx))
	defer returnScratch(sc)
	ids := t.idx.resolve(b, sc)
	stride := t.stride()
	if grow := t.idx.n*stride - len(t.sums); grow > 0 {
		t.sums = append(t.sums, make([]float64, grow)...)
	}
	var wcol []float64
	if s.weightIdx >= 0 {
		wcol = b.Vecs[s.weightIdx].F64
	}
	// Each live row's w·count and w·errC, kept from the row pass for the
	// per-aggregate column passes.
	if cap(sc.floats) < 2*n {
		sc.floats = make([]float64, 2*max(n, storage.BatchSize))
	}
	wc, we := sc.floats[:n], sc.floats[n:2*n]
	for j, id := range ids {
		i := j
		if b.Sel != nil {
			i = int(b.Sel[j])
		}
		cnt, sum := s.sketch.Estimate(b.Vecs, s.probeKeyIdx, i)
		w := 1.0
		if wcol != nil {
			w = wcol[i]
		}
		g := t.sums[int(id)*stride:]
		wc[j], we[j] = w*cnt, w*s.errC
		g[sjDen] += wc[j]
		g[sjNum] += w * sum
		g[sjErrDen] += we[j]
		g[sjErrNum] += w * s.errS
	}
	for k, pi := range s.aggProbeIdx {
		if pi < 0 {
			continue
		}
		// newSketchSink binds aggregates to numeric columns only (Validate
		// refuses the rest), so the two typed arms are exhaustive.
		cells := t.sums[sjPerAgg+2*k:]
		switch v := b.Vecs[pi]; v.Typ {
		case storage.Float64:
			foldProbeColumn(cells, stride, ids, b.Sel, v.F64, wc, we)
		case storage.Int64:
			foldProbeColumn(cells, stride, ids, b.Sel, v.I64, wc, we)
		}
	}
}

// foldProbeColumn folds one probe-side aggregate column: cells is the slab
// from that aggregate's pair on, so group id's pair is cells[id*stride:].
func foldProbeColumn[T int64 | float64](cells []float64, stride int, ids, sel []int32, col []T, wc, we []float64) {
	for j, id := range ids {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		pv := float64(col[i])
		g := cells[int(id)*stride:]
		g[0] += wc[j] * pv
		g[1] += we[j] * abs(pv)
	}
}

// merge implements partial. Each group's sums re-associate once per morsel
// boundary, so merging in morsel index order keeps them bit-reproducible at
// any worker count. A group new to t takes o's sums as they are (see
// aggTable.merge).
func (t *sketchTable) merge(o partial) {
	ot := o.(*sketchTable)
	stride, had := t.stride(), t.idx.n
	ids := t.idx.absorb(&ot.idx)
	t.sums = slices.Grow(t.sums, t.idx.n*stride-len(t.sums))
	for oid, id := range ids {
		src := ot.sums[oid*stride : (oid+1)*stride]
		if int(id) >= had {
			t.sums = append(t.sums, src...)
			continue
		}
		dst := t.sums[int(id)*stride:]
		for c, x := range src {
			dst[c] += x
		}
	}
}

// emit implements partial: groups in key order, each aggregate cell with its
// estimate and error bound.
func (t *sketchTable) emit(float64) (*storage.Batch, [][]stats.Interval) {
	s := t.sink
	// Group keys are unique, so the value sort is total: ids never show.
	keys := t.idx.keyRows()
	stride := t.stride()

	out := storage.NewBatch(s.schema, len(keys))
	intervals := make([][]stats.Interval, 0, len(keys))
	for _, id := range sortRowsByValues(keys) {
		g := sjSums(t.sums[id*stride : (id+1)*stride])
		// Sketch estimates only ever overestimate; groups whose entire mass
		// is attributable to collision noise are spurious — drop them. The
		// test reads the merged totals, never one morsel's share.
		if g[sjDen] <= g[sjErrDen] && g[sjDen] < 1 {
			continue
		}
		for c, v := range keys[id] {
			out.Vecs[c].Append(v)
		}
		rowIv := make([]stats.Interval, len(s.node.Aggs))
		for k, ag := range s.node.Aggs {
			iv := s.groupInterval(g, k, ag)
			rowIv[k] = iv
			out.Vecs[len(s.groupIdx)+k].F64 = append(out.Vecs[len(s.groupIdx)+k].F64, iv.Estimate)
		}
		intervals = append(intervals, rowIv)
	}
	return out, intervals
}

// groupInterval derives estimate and a conservative error bound for one
// aggregate cell. CM bounds are one-sided (overestimates), reported here as
// symmetric half-widths.
func (s *sketchSink) groupInterval(g sjSums, k int, ag plan.AggSpec) stats.Interval {
	den, errDen := g[sjDen], g[sjErrDen]
	switch {
	case ag.Kind == stats.Count:
		return stats.Interval{Estimate: den, HalfWidth: errDen}
	case ag.Kind == stats.Sum && s.aggProbeIdx[k] < 0:
		return stats.Interval{Estimate: g[sjNum], HalfWidth: g[sjErrNum]}
	case ag.Kind == stats.Sum:
		return stats.Interval{Estimate: g.probe(k), HalfWidth: g.errProbe(k)}
	case ag.Kind == stats.Avg && s.aggProbeIdx[k] < 0:
		if den == 0 {
			return stats.Interval{}
		}
		r := g[sjNum] / den
		hw := (g[sjErrNum] + abs(r)*errDen) / den
		return stats.Interval{Estimate: r, HalfWidth: hw}
	case ag.Kind == stats.Avg:
		if den == 0 {
			return stats.Interval{}
		}
		r := g.probe(k) / den
		hw := (g.errProbe(k) + abs(r)*errDen) / den
		return stats.Interval{Estimate: r, HalfWidth: hw}
	}
	return stats.Interval{}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
