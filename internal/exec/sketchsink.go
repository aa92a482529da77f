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
// is summarized into its exact (count, sum) per join key (reused from the
// warehouse when available, built inline otherwise), and the spine's probe
// rows look their key up in it while grouping on probe-side columns. The
// whole Join+Aggregate pair collapses into this one terminal.
type sketchSink struct {
	node   *plan.SketchJoin
	schema storage.Schema

	probeKeyIdx []int
	groupIdx    []int
	aggProbeIdx []int // probe-side column per agg, -1 when agg uses build side
	weightIdx   int

	// The inline build, nil when node.Sketch is already materialized: the
	// lowered build side, its key columns and its aggregate column (-1:
	// counts only).
	build       Operator
	buildKeyIdx []int
	buildKeys   storage.Schema
	buildAggIdx int

	// sketch is what every probe row reads, set by prepare.
	sketch *synopses.SketchJoin
}

// newSketchSink binds the node's columns against the probe spine's output
// schema in and, for an inline build, lowers the build side (compileBuild:
// σ(base table), so never sampled). It refuses a probe key typed unlike its
// build key, which the per-key table could never match.
func newSketchSink(node *plan.SketchJoin, in storage.Schema, ctx *Context) (*sketchSink, error) {
	s := &sketchSink{node: node}
	if len(node.ProbeKeys) != len(node.BuildKeys) || len(node.ProbeKeys) == 0 {
		return nil, fmt.Errorf("exec: sketch join needs equal, non-empty key lists, got probe %v and build %v", node.ProbeKeys, node.BuildKeys)
	}
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
		// COUNT(col) is COUNT(*) (see resolveAggSpec): it reads the payload's
		// counts and no column on either side.
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
	probeKeys := projectSchema(in, s.probeKeyIdx)
	if node.Sketch != nil {
		return s, keyTypesMatch("sketch join", probeKeys, node.Sketch.KeySchema())
	}

	if node.Build == nil {
		return nil, fmt.Errorf("exec: sketch join: no materialized sketch and no build input")
	}
	build, err := compileBuild(node.Build, "a sketch-join's build side", ctx)
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
		s.buildKeys = append(s.buildKeys, storage.Col{Name: k, Typ: bs[i].Typ})
	}
	if err := keyTypesMatch("sketch join", probeKeys, s.buildKeys); err != nil {
		return nil, err
	}
	s.buildAggIdx = -1
	if node.AggCol != "" {
		i := bs.Index(node.AggCol)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: build agg column %q not in %v", node.AggCol, bs.Names())
		}
		// The planner names the build column of every aggregate, COUNT
		// included, and only COUNT may name a non-numeric one (Validate
		// refuses the rest): such a payload carries counts and no sums.
		if bs[i].Typ.Numeric() {
			s.buildAggIdx = i
		}
	}
	s.build = build
	return s, nil
}

// sketchReads names the probe-spine columns a sketch-join reads: its probe
// keys, its group columns and the probe-side aggregate columns (an aggregate
// over the build column reads the payload's sums, and COUNT its counts).
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
// σ(base table) drained once, serially, before the pool starts —
// every row is one group-index lookup and one or two adds into a per-key
// slab, and the result is one small shared table, so there is nothing for
// morsels to split. The finished payload is recorded for the tuner to keep.
func (s *sketchSink) prepare(ctx *Context) error {
	s.sketch = s.node.Sketch
	if s.build == nil {
		return nil
	}
	sk, err := s.buildPayload(ctx)
	if cerr := s.build.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s.sketch = sk
	ctx.Stats.BuiltSketches = append(ctx.Stats.BuiltSketches, BuiltSketch{Op: s.node, Sketch: sk})
	return nil
}

// buildPayload groups every build row by its join key through a groupIndex
// — ids in first-seen row order — counting the rows, and summing the
// aggregate column, of each key in two float64 slabs in row order. One CPU
// tuple per build row.
func (s *sketchSink) buildPayload(ctx *Context) (*synopses.SketchJoin, error) {
	if err := s.build.Open(); err != nil {
		return nil, err
	}
	idx := newGroupIndex(s.buildKeyIdx, s.buildKeys)
	var counts, sums []float64
	for {
		b, err := s.build.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if n := b.Rows(); n > 0 {
			ctx.Stats.CPUTuples += int64(n)
			sc := borrowScratch(n, len(s.buildKeyIdx))
			ids := idx.resolve(b, sc)
			grow := idx.n - len(counts)
			counts = append(counts, make([]float64, grow)...)
			for _, id := range ids {
				counts[id]++
			}
			if s.buildAggIdx >= 0 {
				sums = append(sums, make([]float64, grow)...)
				switch v := b.Vecs[s.buildAggIdx]; v.Typ {
				case storage.Float64:
					sumColumn(sums, ids, b.Sel, v.F64)
				case storage.Int64:
					sumColumn(sums, ids, b.Sel, v.I64)
				}
			}
			returnScratch(sc)
		}
		ctx.Pool.Release(b)
	}
	schema := append(s.buildKeys.Clone(), storage.Col{Name: synopses.CountCol, Typ: storage.Float64})
	cols := append(idx.keyColumns(), &storage.Vector{Typ: storage.Float64, F64: counts})
	if s.buildAggIdx >= 0 {
		schema = append(schema, storage.Col{Name: synopses.SumCol, Typ: storage.Float64})
		cols = append(cols, &storage.Vector{Typ: storage.Float64, F64: sums})
	}
	rows, err := storage.NewTable("sketch-join", schema, cols, 1)
	if err != nil {
		return nil, err
	}
	return synopses.NewSketchJoin(rows, s.node.AggCol)
}

// sumColumn adds every live row's aggregate value into its key's sum.
func sumColumn[T int64 | float64](sums []float64, ids, sel []int32, col []T) {
	for j, id := range ids {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		sums[id] += float64(col[i])
	}
}

// newPartial implements sink.
func (s *sketchSink) newPartial() partial {
	return &sketchTable{sink: s, idx: newGroupIndex(s.groupIdx, s.schema)}
}

// sjSums is one group's running sketch-join state, a row of sketchTable's
// slab; every cell is a sum over the group's probe rows.
type sjSums []float64

// The cells of an sjSums row: two sums every group carries, then one per
// aggregate k (zero, and never read, for an aggregate over the build column).
const (
	sjDen    = iota // Σ w·count(key): COUNT(*) of the join result
	sjNum           // Σ w·sum(key): SUM(build agg col)
	sjPerAgg        // cells before the per-aggregate ones
)

// probe is Σ w·count(key)·y over aggregate k's probe-side column y.
func (g sjSums) probe(k int) float64 { return g[sjPerAgg+k] }

// sketchTable is the sketch sink's partial: groups are the dense ids of idx
// (groupindex.go) over the probe-side grouping columns, and group id's sums
// are the stride cells of sums from id*stride on.
type sketchTable struct {
	sink *sketchSink
	idx  groupIndex
	sums []float64
}

func (t *sketchTable) stride() int { return sjPerAgg + len(t.sink.aggProbeIdx) }

// fold implements partial: one payload lookup and one CPU tuple per live
// probe row, and — unlike the aggregate sink — no exchange: the payload is
// broadcast, the probe rows stay where they are. Rows fold in two passes, as
// aggTable.observe does: the row pass resolves groups, looks the key up and
// folds the two sums every group carries; then each probe-side aggregate
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
	// Each live row's w·count, kept from the row pass for the per-aggregate
	// column passes.
	if cap(sc.floats) < n {
		sc.floats = make([]float64, max(n, storage.BatchSize))
	}
	wc := sc.floats[:n]
	var key []byte
	for j, id := range ids {
		i := j
		if b.Sel != nil {
			i = int(b.Sel[j])
		}
		cnt, sum := s.sketch.Lookup(b.Vecs, s.probeKeyIdx, i, &key)
		w := 1.0
		if wcol != nil {
			w = wcol[i]
		}
		g := t.sums[int(id)*stride:]
		wc[j] = w * cnt
		g[sjDen] += wc[j]
		g[sjNum] += w * sum
	}
	for k, pi := range s.aggProbeIdx {
		if pi < 0 {
			continue
		}
		// newSketchSink binds aggregates to numeric columns only (Validate
		// refuses the rest), so the two typed arms are exhaustive.
		cells := t.sums[sjPerAgg+k:]
		switch v := b.Vecs[pi]; v.Typ {
		case storage.Float64:
			foldProbeColumn(cells, stride, ids, b.Sel, v.F64, wc)
		case storage.Int64:
			foldProbeColumn(cells, stride, ids, b.Sel, v.I64, wc)
		}
	}
}

// foldProbeColumn folds one probe-side aggregate column: cells is the slab
// from that aggregate's cell on, so group id's cell is cells[id*stride].
func foldProbeColumn[T int64 | float64](cells []float64, stride int, ids, sel []int32, col []T, wc []float64) {
	for j, id := range ids {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		cells[int(id)*stride] += wc[j] * float64(col[i])
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

// emit implements partial: groups in key order, each aggregate cell exact —
// a zero half-width. A group no probe row of which matched a build key is no
// group of the join and is dropped; a global aggregate (no GROUP BY) over an
// empty join is still one row of zeros, as the aggregate sink answers.
func (t *sketchTable) emit(float64) (*storage.Batch, [][]stats.Interval) {
	s := t.sink
	stride := t.stride()
	global := len(s.groupIdx) == 0
	if global && t.idx.n == 0 {
		t.idx.sole()
		t.sums = make([]float64, stride)
	}
	// Group keys are unique, so the value sort is total: ids never show.
	keys := t.idx.keyRows()

	out := storage.NewBatch(s.schema, len(keys))
	intervals := make([][]stats.Interval, 0, len(keys))
	for _, id := range sortRowsByValues(keys) {
		g := sjSums(t.sums[id*stride : (id+1)*stride])
		if g[sjDen] == 0 && !global {
			continue
		}
		for c, v := range keys[id] {
			out.Vecs[c].Append(v)
		}
		rowIv := make([]stats.Interval, len(s.node.Aggs))
		for k, ag := range s.node.Aggs {
			v := s.cell(g, k, ag)
			rowIv[k] = stats.Interval{Estimate: v}
			out.Vecs[len(s.groupIdx)+k].F64 = append(out.Vecs[len(s.groupIdx)+k].F64, v)
		}
		intervals = append(intervals, rowIv)
	}
	return out, intervals
}

// cell is one aggregate's value for a group: over an unsampled build side
// the join result's exact COUNT, SUM or AVG (0 for the AVG of an empty
// global aggregate).
func (s *sketchSink) cell(g sjSums, k int, ag plan.AggSpec) float64 {
	den := g[sjDen]
	num := g[sjNum]
	if s.aggProbeIdx[k] >= 0 {
		num = g.probe(k)
	}
	switch {
	case ag.Kind == stats.Count:
		return den
	case ag.Kind == stats.Sum:
		return num
	case ag.Kind == stats.Avg && den != 0:
		return num / den
	}
	return 0
}
