package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// samplerStage is the pipelined sampler the planner injects below
// aggregators (paper §IV-A), a stage of the morsel loop directly over the
// leaf. It forwards passing rows downstream with their HT weight appended,
// and — when the tuner chose this plan for its reusable synopsis — records
// the very same rows' table positions and weights, from which PipelineOp
// gathers the Sample once its morsels are done (the "byproduct of query
// execution" materialization of paper §III). What it binds is the run's:
// its configuration, its stratification columns' positions, whether it
// keeps its rows. A morsel's instance (sampler) carries only its seed, its δ'
// and its strata epoch; the rows it draws are the morsel's.
type samplerStage struct {
	node   *plan.SynopsisOp
	strat  []int          // a distinct sampler's stratification columns, by leaf position
	keep   bool           // the run keeps the drawn rows (Context.Materialize)
	id     uint64         // the kept sample's descriptor id
	schema storage.Schema // the leaf's columns and the weight column
}

// newSamplerStage binds the sampler node over the leaf schema in, once per
// run, for every morsel to instantiate.
func newSamplerStage(node *plan.SynopsisOp, in storage.Schema, ctx *Context) (*samplerStage, error) {
	s := &samplerStage{node: node, schema: synopses.SampleSchema(in)}
	switch node.Kind {
	case plan.UniformSample:
	case plan.DistinctSample:
		s.strat = make([]int, 0, len(node.StratCols))
		for _, c := range node.StratCols {
			i := in.Index(c)
			if i < 0 {
				return nil, fmt.Errorf("exec: sampler: stratification column %q not in %v", c, in.Names())
			}
			s.strat = append(s.strat, i)
		}
	default:
		return nil, fmt.Errorf("exec: sampler: unsupported synopsis kind %s", node.Kind)
	}
	s.id, s.keep = ctx.Materialize[node]
	return s, nil
}

// sampler is morsel i's of nMorsels instance: it draws from the RNG stream
// SplitSeed(seed, i), and a distinct one keeps δ' = PartitionDelta(δ,
// nMorsels) rows a stratum (paper §II), not the full requirement, numbering
// its strata through strata, the worker's for the whole run (nil: its own).
func (s *samplerStage) sampler(seed uint64, i, nMorsels int, strata *synopses.Strata) synopses.Sampler {
	seed = synopses.SplitSeed(seed, uint64(i))
	if s.node.Kind == plan.UniformSample {
		return synopses.NewUniformSampler(s.node.P, seed)
	}
	ds := synopses.NewDistinctSampler(s.node.P, synopses.PartitionDelta(s.node.Delta, nMorsels), s.strat, seed)
	if strata != nil {
		ds.CountIn(strata)
	}
	return ds
}

// draw runs the stage over b into out, the worker's batch of the stage's
// schema, and returns it holding the passing rows with their weights, or
// nil when none passes. Decisions first, copies second: one Decide call
// walks the batch's live rows in order — under the selection, by physical
// index, so a filtered stream draws exactly as its gathered equivalent did —
// collecting the passing rows and their weights (recording them in drawn,
// the morsel's, when the run keeps them), and each output column is then
// gathered once. A passing row's width grows by the weight column's 8 bytes.
// pass is the worker's scratch; the grown one is returned.
func (s *samplerStage) draw(b *storage.Batch, smp synopses.Sampler, drawn *synopses.Drawn, out *storage.Batch, pass []int32, ctx *Context) (*storage.Batch, []int32) {
	ctx.Stats.CPUTuples += int64(b.Rows())
	out.Reset()
	weights := out.Vecs[len(s.schema)-1]
	if drawn != nil {
		pass, weights.F64 = drawn.Draw(smp, b, pass[:0], weights.F64)
	} else {
		pass, weights.F64 = smp.Decide(b, pass[:0], weights.F64)
	}
	if len(pass) == 0 {
		return nil, pass
	}
	for c, v := range b.Vecs {
		out.Vecs[c].AppendGather(v, pass)
	}
	for _, i := range pass {
		out.Width = append(out.Width, b.Width[i]+8)
	}
	return out, pass
}
