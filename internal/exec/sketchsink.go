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
	keys        groupKeys
	aggProbeIdx []int // probe-side column per agg, -1 when agg uses build side

	// The inline build, nil when node.Sketch is already materialized: the
	// lowered build side, its key columns and its aggregate column (-1:
	// counts only), and whether the run keeps the payload, under which
	// descriptor id (Context.Materialize).
	build       *buildSide
	buildKeyIdx []int
	buildKeys   storage.Schema
	buildAggIdx int
	keep        bool
	id          uint64

	// sketch is what every probe row reads, set by prepare.
	sketch *synopses.SketchJoin
}

// newSketchSink binds the node's columns against the probe spine's output
// schema in — the group columns, or, folding by a probe table's numbering
// (src non-nil), the id column (bindGroups) — and, for an inline build,
// lowers the build side (newBuildSide: σ(base table), so never sampled). It
// refuses a probe key typed unlike its build key, which the per-key table
// could never match, and a sampled probe: every cell it emits is exact, with
// a zero half-width.
func newSketchSink(node *plan.SketchJoin, in storage.Schema, src *groupSource, ctx *Context) (*sketchSink, error) {
	s := &sketchSink{node: node}
	if len(node.ProbeKeys) != len(node.BuildKeys) || len(node.ProbeKeys) == 0 {
		return nil, fmt.Errorf("exec: sketch join needs equal, non-empty key lists, got probe %v and build %v", node.ProbeKeys, node.BuildKeys)
	}
	if in.Index(synopses.WeightCol) >= 0 {
		return nil, fmt.Errorf("exec: sketch join: the probe side carries sampler weights (%s); a sketch-join answers exactly and cannot widen its intervals for a sample", synopses.WeightCol)
	}
	for _, k := range node.ProbeKeys {
		i := in.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: probe key %q not in %v", k, in.Names())
		}
		s.probeKeyIdx = append(s.probeKeyIdx, i)
	}
	keys, err := bindGroups(in, node.GroupBy, src, "sketch join")
	if err != nil {
		return nil, err
	}
	s.keys, s.schema = keys, keys.schema
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
	probeKeys := projectSchema(in, s.probeKeyIdx)
	if node.Sketch != nil {
		return s, keyTypesMatch("sketch join", probeKeys, node.Sketch.KeySchema())
	}

	if node.Build == nil {
		return nil, fmt.Errorf("exec: sketch join: no materialized sketch and no build input")
	}
	build, err := newBuildSide(node.Build, "a sketch-join's build side", ctx)
	if err != nil {
		return nil, err
	}
	bs := build.table.leafSchema
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
	s.id, s.keep = ctx.Materialize[node]
	return s, nil
}

// sketchReads names the probe-spine columns a sketch-join reads besides its
// group columns: its probe keys and the probe-side aggregate columns (an
// aggregate over the build column reads the payload's sums, and COUNT its
// counts).
func sketchReads(node *plan.SketchJoin) []string {
	reads := append([]string(nil), node.ProbeKeys...)
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
// σ(base table) drained once, serially, before the pool starts — every row
// is one count and one add into its key's cell, and the result is one small
// shared table, so there is nothing for morsels to split. The cell is the
// key's place in the scanned table (keySpace), and one fold counts at it
// whichever place that is (buildPayload). The finished payload is recorded
// when the run keeps it.
func (s *sketchSink) prepare(ctx *Context) error {
	s.sketch = s.node.Sketch
	if s.build == nil {
		return nil
	}
	lo, n, ids := s.keySpace()
	sk, err := s.buildPayload(lo, n, ids, ctx)
	if err != nil {
		return err
	}
	s.sketch = sk
	if s.keep {
		ctx.Stats.Built = append(ctx.Stats.Built, Built{Node: s.node, ID: s.id,
			Synopsis: sk, SourceRows: int64(s.build.table.leaf.NumRows())})
	}
	return nil
}

// keySpace picks where a build row counts, one of n places. A dense key —
// one Int64 column whose bounds over the scanned table span densely for the table's rows (Table.DenseSpan, the rule its
// KeyIndex and its group statistics lay the key out by) — counts at its
// address key − lo, and ids is nil: every key a build batch carries is one
// of the table's, so it lies within the bounds. Any other key counts at its
// row's id in the scanned table's own numbering of the build keys, ids,
// which the version builds once and shares with its KeyIndex and every sink
// grouping by those columns.
func (s *sketchSink) keySpace() (lo int64, n int, ids *storage.GroupIDs) {
	t := s.build.table.leaf
	cols := make([]int, len(s.buildKeys))
	for c, k := range s.buildKeys {
		cols[c] = t.Schema().Index(k.Name)
	}
	if len(cols) == 1 {
		if lo, n, ok := t.DenseSpan(cols[0]); ok {
			return lo, n, nil
		}
	}
	ids = t.GroupIDs(cols)
	return 0, ids.Len(), ids
}

// buildPayload drains the build side into the payload: a row per join key,
// in first-seen row order, holding the key's row count and the row-order sum
// of its aggregate column from +0. Each build row counts, and sums, at its
// key's place among n (keySpace) — key − lo, or its table row's id when ids
// is set: a build batch's rows are table rows from its Start on — in arrays
// allocated once, and a key's first row appends its place to order, which
// the table's rows bound. After the drain one walk over order writes the
// payload's columns at their length, the keys from their places or gathered
// from the numbering's Keys. Counts are int32, as a KeyIndex's row positions
// are. One CPU tuple per build row.
func (s *sketchSink) buildPayload(lo int64, n int, ids *storage.GroupIDs, ctx *Context) (*synopses.SketchJoin, error) {
	count := make([]int32, n)
	var sum []float64
	if s.buildAggIdx >= 0 {
		sum = make([]float64, n)
	}
	order := make([]int32, 0, min(n, s.build.table.leaf.NumRows()))
	s.build.drain(ctx, func(b *storage.Batch) {
		ctx.Stats.CPUTuples += int64(b.Rows())
		at := b.Vecs[s.buildKeyIdx[0]].I64
		if ids != nil {
			at = ids.ID.I64[b.Start : b.Start+b.Len()]
		}
		// newSketchSink keeps a numeric aggregate column only.
		switch {
		case s.buildAggIdx < 0:
			order = foldAtKeys(order, count, nil, lo, at, b.Sel, []float64(nil))
		case b.Vecs[s.buildAggIdx].Typ == storage.Float64:
			order = foldAtKeys(order, count, sum, lo, at, b.Sel, b.Vecs[s.buildAggIdx].F64)
		default:
			order = foldAtKeys(order, count, sum, lo, at, b.Sel, b.Vecs[s.buildAggIdx].I64)
		}
	})
	var cols []*storage.Vector
	if ids == nil {
		keys := make([]int64, len(order))
		for j, p := range order {
			keys[j] = lo + int64(p)
		}
		cols = append(cols, &storage.Vector{Typ: storage.Int64, I64: keys})
	} else {
		for _, k := range ids.Keys {
			v := storage.NewVector(k.Typ, len(order))
			v.AppendGather(k, order)
			cols = append(cols, v)
		}
	}
	counts := make([]float64, len(order))
	for j, p := range order {
		counts[j] = float64(count[p])
	}
	cols = append(cols, &storage.Vector{Typ: storage.Float64, F64: counts})
	schema := append(s.buildKeys.Clone(), storage.Col{Name: synopses.CountCol, Typ: storage.Float64})
	if sum != nil {
		sums := make([]float64, len(order))
		for j, p := range order {
			sums[j] = sum[p]
		}
		cols = append(cols, &storage.Vector{Typ: storage.Float64, F64: sums})
		schema = append(schema, storage.Col{Name: synopses.SumCol, Typ: storage.Float64})
	}
	rows, err := storage.NewTable("sketch-join", schema, cols, 1)
	if err != nil {
		return nil, err
	}
	return synopses.NewSketchJoin(rows, s.node.AggCol)
}

// foldAtKeys folds one build batch's live rows — the rows sel names, or every
// row — into the cells at their places at[i] − lo: a count each, and the
// aggregate value into sum unless vals is nil. A key's first row appends its
// place to order.
func foldAtKeys[T int64 | float64](order, count []int32, sum []float64, lo int64, at []int64, sel []int32, vals []T) []int32 {
	if sel == nil {
		for i, k := range at {
			p := uint64(k) - uint64(lo)
			if count[p] == 0 {
				order = append(order, int32(p))
			}
			count[p]++
			if vals != nil {
				sum[p] += float64(vals[i])
			}
		}
		return order
	}
	for _, i := range sel {
		p := uint64(at[i]) - uint64(lo)
		if count[p] == 0 {
			order = append(order, int32(p))
		}
		count[p]++
		if vals != nil {
			sum[p] += float64(vals[i])
		}
	}
	return order
}

// newPartial implements sink.
func (s *sketchSink) newPartial() partial {
	return &sketchTable{sink: s, groups: newGroupTable(&s.keys), slab: stats.NewSumSlab(s.stride())}
}

// stride is the cells of a group's row: the two sums every group carries and
// one per aggregate.
func (s *sketchSink) stride() int { return sjPerAgg + len(s.aggProbeIdx) }

// The cells of a group's row in sketchTable's slab, every one a sum over the
// group's probe rows: two sums every group carries, then one per aggregate
// k, Σ count(key)·y over its probe-side column y (zero, and never read, for
// an aggregate over the build column).
const (
	sjDen    = iota // Σ count(key): COUNT(*) of the join result
	sjNum           // Σ sum(key): SUM(build agg col)
	sjPerAgg        // cells before the per-aggregate ones
)

// sketchTable is the sketch sink's partial: groups are the slab ids of its
// group table over the probe-side grouping columns, and group id's sums are
// its row of slab, a slab of sums the aggregate sink's type holds too.
type sketchTable struct {
	sink   *sketchSink
	groups groupTable
	slab   stats.Slab
}

// reset implements partial: no group, memory kept (see aggTable.reset).
func (t *sketchTable) reset() {
	t.groups.reset()
	t.slab.Reset()
}

// fold implements partial: one CPU tuple per live probe row, and — unlike
// the aggregate sink — no exchange: the payload is broadcast, the probe rows
// stay where they are. Rows fold in passes, as aggTable.observe does, in the
// worker's scratch sc: groups resolve, one Probe call finds every live row's
// payload row, and the pair pass folds the two sums every group carries;
// then each probe-side aggregate column folds in a loop of its own over a
// typed slice. The pair
// pass skips a row no key matches: it would add zeros, and a sum that starts
// at +0 never becomes −0, so adding +0 changes no bit. Every cell still adds
// the same terms in row order, so the sums are bit-identical to a row-major
// fold.
func (t *sketchTable) fold(b *storage.Batch, ctx *Context, sc *foldScratch) {
	s := t.sink
	n := b.Rows()
	ctx.Stats.CPUTuples += int64(n)
	if n == 0 {
		return
	}
	ids := t.groups.resolve(b, sc.groups)
	t.slab.Open(t.groups.len())
	// Each live row's key count, kept from the row pass for the
	// per-aggregate column passes.
	sc.cnts.F64 = slices.Grow(sc.cnts.F64[:0], n)[:n]
	cnts := sc.cnts.F64
	clear(cnts)
	sc.pos, sc.rows, _ = s.sketch.Index().Probe(b, s.probeKeyIdx, nil, storage.ProbePos{}, n, sc.pos[:0], sc.rows[:0])
	for k, j := range sc.pos {
		cnt, sum := s.sketch.Row(sc.rows[k])
		g := t.slab.Row(ids[j])
		cnts[j] = cnt
		g[sjDen] += cnt
		g[sjNum] += sum
	}
	for k, pi := range s.aggProbeIdx {
		if pi < 0 {
			continue
		}
		// newSketchSink binds aggregates to numeric columns only (Validate
		// refuses the rest), so the two typed arms are exhaustive.
		cells := t.slab.Cells[sjPerAgg+k:]
		switch v := b.Vecs[pi]; v.Typ {
		case storage.Float64:
			foldProbeColumn(cells, s.stride(), ids, b.Sel, v.F64, cnts)
		case storage.Int64:
			foldProbeColumn(cells, s.stride(), ids, b.Sel, v.I64, cnts)
		}
	}
}

// foldProbeColumn folds one probe-side aggregate column: cells is the slab
// from that aggregate's cell on, so group id's cell is cells[id*stride].
func foldProbeColumn[T int64 | float64](cells []float64, stride int, ids, sel []int32, col []T, cnts []float64) {
	for j, id := range ids {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		cells[int(id)*stride] += cnts[j] * float64(col[i])
	}
}

// merge implements partial. Each group's sums re-associate once per morsel
// boundary, so merging in morsel index order keeps them bit-reproducible at
// any worker count. A group new to t takes o's sums as they are (see
// aggTable.merge).
func (t *sketchTable) merge(o partial) {
	ot := o.(*sketchTable)
	t.slab.Merge(&ot.slab, t.groups.merge(&ot.groups))
}

// emit implements partial: groups in key order (groupTable.emit), each
// aggregate cell exact — a zero half-width. A group no probe row of which
// matched a build key is no group of the join and is dropped, its key never
// gathered; a global aggregate (no GROUP BY) over an empty join is still one
// row of zeros, as the aggregate sink answers.
func (t *sketchTable) emit(float64) (*storage.Batch, [][]stats.Interval) {
	s := t.sink
	keep := func(id int32) bool { return t.slab.Row(id)[sjDen] != 0 }
	if len(s.node.GroupBy) == 0 {
		keep = nil
	}
	out := storage.NewBatch(s.schema, t.groups.len())
	order := t.groups.emit(out.Vecs, keep)
	t.slab.Open(t.groups.len()) // a global one's zeros
	intervals := make([][]stats.Interval, len(order))
	for i, id := range order {
		g := t.slab.Row(id)
		intervals[i] = make([]stats.Interval, len(s.node.Aggs))
		for k, ag := range s.node.Aggs {
			v := s.cell(g, k, ag)
			intervals[i][k] = stats.Interval{Estimate: v}
			out.Vecs[len(s.node.GroupBy)+k].F64 = append(out.Vecs[len(s.node.GroupBy)+k].F64, v)
		}
	}
	return out, intervals
}

// cell is one aggregate's value for a group: over an unsampled build side
// the join result's exact COUNT, SUM or AVG (0 for the AVG of an empty
// global aggregate).
func (s *sketchSink) cell(g []float64, k int, ag plan.AggSpec) float64 {
	den := g[sjDen]
	num := g[sjNum]
	if s.aggProbeIdx[k] >= 0 {
		num = g[sjPerAgg+k]
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
