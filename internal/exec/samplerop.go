package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// SamplerOp is the pipelined sampler operator the planner injects below
// aggregators (paper §IV-A). It forwards passing rows downstream with their
// HT weight appended, and — when the tuner chose this plan for its reusable
// synopsis — records the very same rows' table positions and weights, from
// which PipelineOp gathers the Sample once its morsels are done (the
// "byproduct of query execution" materialization of paper §III).
type SamplerOp struct {
	Child Operator
	Node  *plan.SynopsisOp

	ctx     *Context
	sampler synopses.Sampler
	schema  storage.Schema

	drawn *synopses.Drawn // the rows drawn for the stored sample; nil: none is kept

	pass []int32 // per-batch scratch: the passing rows' physical indices
}

// newSamplerOp builds one morsel's instance of the sampler described by the
// plan node. The instance carries its own δ: the morsel executor passes
// δ' = PartitionDelta(δ, morsels) (paper §II), not the full requirement. A
// distinct sampler numbers its strata through strata, the worker's for the
// whole run (nil: its own). The context's MaterializeSamples map decides
// whether the drawn rows are also recorded.
func newSamplerOp(child Operator, node *plan.SynopsisOp, delta int, seed uint64, strata *synopses.Strata, ctx *Context) (*SamplerOp, error) {
	in := child.Schema()
	op := &SamplerOp{Child: child, Node: node, ctx: ctx}
	op.schema = synopses.SampleSchema(in)

	switch node.Kind {
	case plan.UniformSample:
		op.sampler = synopses.NewUniformSampler(node.P, seed)
	case plan.DistinctSample:
		idxs := make([]int, 0, len(node.StratCols))
		for _, c := range node.StratCols {
			i := in.Index(c)
			if i < 0 {
				return nil, fmt.Errorf("exec: sampler: stratification column %q not in %v", c, in.Names())
			}
			idxs = append(idxs, i)
		}
		ds := synopses.NewDistinctSampler(node.P, delta, idxs, seed)
		if strata != nil {
			ds.CountIn(strata)
		}
		op.sampler = ds
	default:
		return nil, fmt.Errorf("exec: sampler: unsupported synopsis kind %s", node.Kind)
	}

	if _, ok := ctx.MaterializeSamples[node]; ok {
		op.drawn = &synopses.Drawn{}
	}
	return op, nil
}

// Open implements Operator.
func (s *SamplerOp) Open() error { return s.Child.Open() }

// Next implements Operator. Decisions first, copies second: one Decide call
// walks the batch's live rows in order — under the selection, by physical
// index, so a filtered stream draws exactly as its gathered equivalent did —
// collecting the passing rows and their weights, and each output column is
// then gathered once. A passing row's width grows by the weight column's 8
// bytes.
func (s *SamplerOp) Next() (*storage.Batch, error) {
	for {
		b, err := s.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Rows()
		s.ctx.Stats.CPUTuples += int64(n)
		out := s.ctx.Pool.GetBatch(s.schema, n/4+1)
		weights := out.Vecs[len(s.schema)-1]
		if s.drawn != nil {
			s.pass, weights.F64 = s.drawn.Draw(s.sampler, b, s.pass[:0], weights.F64)
		} else {
			s.pass, weights.F64 = s.sampler.Decide(b, s.pass[:0], weights.F64)
		}
		pass := s.pass
		if len(pass) == 0 {
			s.ctx.Pool.Release(out)
			s.ctx.Pool.Release(b)
			continue
		}
		for c, v := range b.Vecs {
			out.Vecs[c].AppendGather(v, pass)
		}
		out.Width = s.ctx.Pool.GetSel(len(pass))
		for _, i := range pass {
			out.Width = append(out.Width, b.Width[i]+8)
		}
		// The passing rows are copied out, and a recorded draw holds table
		// positions, not the batch, so the input batch can be recycled.
		s.ctx.Pool.Release(b)
		return out, nil
	}
}

// Close implements Operator.
func (s *SamplerOp) Close() error { return s.Child.Close() }

// Schema implements Operator.
func (s *SamplerOp) Schema() storage.Schema { return s.schema }
