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
// synopsis — simultaneously materializes the very same rows into a Sample
// (the "byproduct of query execution" materialization of paper §III).
type SamplerOp struct {
	Child Operator
	Node  *plan.SynopsisOp

	ctx     *Context
	sampler synopses.Sampler
	schema  storage.Schema

	matBuilder *synopses.SampleBuilder
	matCols    []string

	pass []int32 // per-batch scratch: the passing rows' physical indices
}

// newSamplerOp builds one morsel's instance of the sampler described by the
// plan node. The instance carries its own δ: the morsel executor passes
// δ' = PartitionDelta(δ, morsels) (paper §II), not the full requirement. The
// context's MaterializeSamples map decides whether the output is also
// materialized.
func newSamplerOp(child Operator, node *plan.SynopsisOp, delta int, seed uint64, ctx *Context) (*SamplerOp, error) {
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
		op.sampler = synopses.NewDistinctSampler(node.P, delta, idxs, seed)
	default:
		return nil, fmt.Errorf("exec: sampler: unsupported synopsis kind %s", node.Kind)
	}

	if name, ok := ctx.MaterializeSamples[node]; ok {
		// The stored sample is the leaf's rows: a group id column the spine
		// carries after them (groupSource) is the query's, not the sample's.
		own := in
		if n := len(in); n > 0 && in[n-1].Name == groupIDCol {
			own = in[:n-1]
		}
		op.matBuilder = synopses.NewSampleBuilder(name, own)
		op.matCols = node.StratCols
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
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.finishMaterialization()
			return nil, nil
		}
		n := b.Rows()
		s.ctx.Stats.CPUTuples += int64(n)
		out := s.ctx.Pool.GetBatch(s.schema, n/4+1)
		weights := out.Vecs[len(s.schema)-1]
		if s.matBuilder != nil {
			s.pass, weights.F64 = s.matBuilder.Offer(s.sampler, b, s.pass[:0], weights.F64)
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
		// Sampling and materialization both copy rows out, so the input batch
		// can be recycled.
		s.ctx.Pool.Release(b)
		return out, nil
	}
}

func (s *SamplerOp) finishMaterialization() {
	if s.matBuilder == nil {
		return
	}
	sample := s.matBuilder.Build(s.sampler, 1)
	sample.StratCols = append([]string(nil), s.matCols...)
	s.ctx.Stats.BuiltSamples = append(s.ctx.Stats.BuiltSamples, BuiltSample{Op: s.Node, Sample: sample})
	s.matBuilder = nil
}

// Close implements Operator.
func (s *SamplerOp) Close() error { return s.Child.Close() }

// Schema implements Operator.
func (s *SamplerOp) Schema() storage.Schema { return s.schema }
