package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// SketchJoinOp executes the sketch-join (paper §II): the build side is
// summarized into a count-min sketch keyed by the join key (reused from the
// warehouse when available, built inline otherwise), and the probe side
// streams against it while grouping on probe-side columns. The whole
// Join+Aggregate pair collapses into this one operator.
type SketchJoinOp struct {
	Node    *plan.SketchJoin
	Probe   Operator
	BuildOp Operator // nil when Node.Sketch is already materialized

	ctx    *Context
	schema storage.Schema
	sketch *synopses.SketchJoin

	probeKeyIdx []int
	groupIdx    []int
	aggProbeIdx []int // probe-side column per agg, -1 when agg uses build side
	weightIdx   int

	emitted   bool
	intervals [][]stats.Interval
}

type sjGroup struct {
	keyVals []storage.Value
	den     float64 // Σ w·count(key): COUNT(*) of the join result
	num     float64 // Σ w·sum(key): SUM(build agg col)
	probe   []float64
	errDen  float64
	errNum  float64
	errProb []float64
}

// NewSketchJoinOp prepares the operator; seed is used when the sketch must
// be built inline.
func NewSketchJoinOp(node *plan.SketchJoin, probe, build Operator, seed uint64, ctx *Context) (*SketchJoinOp, error) {
	op := &SketchJoinOp{Node: node, Probe: probe, BuildOp: build, ctx: ctx, sketch: node.Sketch}
	ps := probe.Schema()
	for _, k := range node.ProbeKeys {
		i := ps.Index(k)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: probe key %q not in %v", k, ps.Names())
		}
		op.probeKeyIdx = append(op.probeKeyIdx, i)
	}
	for _, g := range node.GroupBy {
		i := ps.Index(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: sketch join: group column %q not in %v", g, ps.Names())
		}
		op.groupIdx = append(op.groupIdx, i)
		op.schema = append(op.schema, ps[i])
	}
	for _, ag := range node.Aggs {
		idx := -1
		// COUNT(col) is COUNT(*) (see resolveAggSpec): it reads the sketch's
		// count plane and no column on either side.
		if ag.Kind != stats.Count && ag.Col != "" && ag.Col != node.AggCol {
			idx = ps.Index(ag.Col)
			if idx < 0 {
				return nil, fmt.Errorf("exec: sketch join: aggregate column %q neither build agg nor probe column", ag.Col)
			}
		}
		op.aggProbeIdx = append(op.aggProbeIdx, idx)
		op.schema = append(op.schema, storage.Col{Name: ag.DefaultAlias(), Typ: storage.Float64})
	}
	op.weightIdx = ps.Index(synopses.WeightCol)
	if op.sketch == nil && build == nil {
		return nil, fmt.Errorf("exec: sketch join: no materialized sketch and no build input")
	}
	if op.sketch == nil {
		if node.CMWidth > 0 {
			d := node.CMDepth
			if d < 1 {
				d = 4
			}
			op.sketch = synopses.NewSketchJoinWD(node.CMWidth, d, node.BuildKeys, node.AggCol, seed)
		} else {
			eps, delta := stats.CMGeometry(stats.AccuracySpec{RelError: 0.1, Confidence: ctx.Confidence})
			op.sketch = synopses.NewSketchJoin(eps, delta, node.BuildKeys, node.AggCol, seed)
		}
	}
	return op, nil
}

// Open implements Operator: builds the sketch from the build side if needed.
func (s *SketchJoinOp) Open() error {
	if err := s.Probe.Open(); err != nil {
		return err
	}
	if s.BuildOp == nil {
		return nil
	}
	if err := s.BuildOp.Open(); err != nil {
		return err
	}
	bs := s.BuildOp.Schema()
	keyIdx := make([]int, 0, len(s.Node.BuildKeys))
	for _, k := range s.Node.BuildKeys {
		i := bs.Index(k)
		if i < 0 {
			return fmt.Errorf("exec: sketch join: build key %q not in %v", k, bs.Names())
		}
		keyIdx = append(keyIdx, i)
	}
	aggIdx := -1
	if s.Node.AggCol != "" {
		aggIdx = bs.Index(s.Node.AggCol)
		if aggIdx < 0 {
			return fmt.Errorf("exec: sketch join: build agg column %q not in %v", s.Node.AggCol, bs.Names())
		}
		// The planner names the build column of every aggregate, COUNT
		// included, and only COUNT may name a non-numeric one (Validate
		// refuses the rest): such a sketch carries counts and no sums.
		if !bs[aggIdx].Typ.Numeric() {
			aggIdx = -1
		}
	}
	wIdx := bs.Index(synopses.WeightCol)
	for {
		b, err := s.BuildOp.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		b = b.Materialize(s.ctx.Pool)
		s.ctx.Stats.CPUTuples += int64(b.Len())
		for i := 0; i < b.Len(); i++ {
			w := 1.0
			if wIdx >= 0 {
				w = b.Vecs[wIdx].F64[i]
			}
			s.sketch.AddRow(b.Vecs, keyIdx, aggIdx, i, w)
		}
		s.ctx.Pool.Release(b)
	}
	s.ctx.Stats.BuiltSketches = append(s.ctx.Stats.BuiltSketches, BuiltSketch{Op: s.Node, Sketch: s.sketch})
	return nil
}

// Next implements Operator: drains the probe side and emits all groups.
func (s *SketchJoinOp) Next() (*storage.Batch, error) {
	if s.emitted {
		return nil, nil
	}
	groups := make(map[string]*sjGroup, 256)
	errC := s.sketch.Count.ExpectedErrorBound()
	errS := s.sketch.Sum.ExpectedErrorBound()
	var key []byte
	for {
		b, err := s.Probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		b = b.Materialize(s.ctx.Pool)
		n := b.Len()
		s.ctx.Stats.CPUTuples += int64(n)
		for i := 0; i < n; i++ {
			cnt, sum := s.sketch.Estimate(b.Vecs, s.probeKeyIdx, i)
			w := 1.0
			if s.weightIdx >= 0 {
				w = b.Vecs[s.weightIdx].F64[i]
			}
			key = groupKey(key, b.Vecs, s.groupIdx, i)
			g, ok := groups[string(key)]
			if !ok {
				g = &sjGroup{
					probe:   make([]float64, len(s.Node.Aggs)),
					errProb: make([]float64, len(s.Node.Aggs)),
				}
				for _, gi := range s.groupIdx {
					g.keyVals = append(g.keyVals, b.Vecs[gi].Get(i))
				}
				groups[string(key)] = g
			}
			g.den += w * cnt
			g.num += w * sum
			g.errDen += w * errC
			g.errNum += w * errS
			for k, pi := range s.aggProbeIdx {
				if pi >= 0 {
					pv := b.Vecs[pi].Float(i)
					g.probe[k] += w * cnt * pv
					a := pv
					if a < 0 {
						a = -a
					}
					g.errProb[k] += w * errC * a
				}
			}
		}
		s.ctx.Pool.Release(b)
	}
	s.emitted = true

	all := make([]*sjGroup, 0, len(groups))
	//taster:sorted emission order is fixed by sortRowsByValues below — group keys are unique, so the value sort is total and launders map order
	for _, g := range groups {
		all = append(all, g)
	}
	keys := make([][]storage.Value, len(all))
	for i, g := range all {
		keys[i] = g.keyVals
	}
	order := sortRowsByValues(keys)

	out := storage.NewBatch(s.schema, len(all))
	s.intervals = make([][]stats.Interval, 0, len(all))
	for _, oi := range order {
		g := all[oi]
		// Sketch estimates only ever overestimate; groups whose entire mass
		// is attributable to collision noise are spurious — drop them.
		if g.den <= g.errDen && g.den < 1 {
			continue
		}
		for c, v := range g.keyVals {
			out.Vecs[c].Append(v)
		}
		rowIv := make([]stats.Interval, len(s.Node.Aggs))
		for k, ag := range s.Node.Aggs {
			iv := s.groupInterval(g, k, ag)
			rowIv[k] = iv
			out.Vecs[len(s.groupIdx)+k].F64 = append(out.Vecs[len(s.groupIdx)+k].F64, iv.Estimate)
		}
		s.intervals = append(s.intervals, rowIv)
	}
	s.ctx.Stats.OutputRows += int64(out.Len())
	return out, nil
}

// groupInterval derives estimate and a conservative error bound for one
// aggregate cell. CM bounds are one-sided (overestimates), reported here as
// symmetric half-widths.
func (s *SketchJoinOp) groupInterval(g *sjGroup, k int, ag plan.AggSpec) stats.Interval {
	switch {
	case ag.Kind == stats.Count:
		return stats.Interval{Estimate: g.den, HalfWidth: g.errDen}
	case ag.Kind == stats.Sum && s.aggProbeIdx[k] < 0:
		return stats.Interval{Estimate: g.num, HalfWidth: g.errNum}
	case ag.Kind == stats.Sum:
		return stats.Interval{Estimate: g.probe[k], HalfWidth: g.errProb[k]}
	case ag.Kind == stats.Avg && s.aggProbeIdx[k] < 0:
		if g.den == 0 {
			return stats.Interval{}
		}
		r := g.num / g.den
		hw := (g.errNum + abs(r)*g.errDen) / g.den
		return stats.Interval{Estimate: r, HalfWidth: hw}
	case ag.Kind == stats.Avg:
		if g.den == 0 {
			return stats.Interval{}
		}
		r := g.probe[k] / g.den
		hw := (g.errProb[k] + abs(r)*g.errDen) / g.den
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

// Close implements Operator.
func (s *SketchJoinOp) Close() error {
	err := s.Probe.Close()
	if s.BuildOp != nil {
		if e := s.BuildOp.Close(); err == nil {
			err = e
		}
	}
	return err
}

// Schema implements Operator.
func (s *SketchJoinOp) Schema() storage.Schema { return s.schema }

// Intervals implements IntervalReporter.
func (s *SketchJoinOp) Intervals() [][]stats.Interval { return s.intervals }
