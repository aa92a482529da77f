package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
)

// Compile lowers a logical plan into a physical operator tree. A root is an
// Aggregate or a SketchJoin — the two sinks of the one morsel pipeline —
// under an optional Sort; Scan, SynopsisScan, Filter and SynopsisOp compile
// on their own as the leaf chains of join build sides and inline sketch
// builds. A Join compiles only as part of a pipeline's spine: anywhere else
// it is an error, like any other shape the spine does not cover. The seed
// drives every random choice (sampling) so runs are reproducible; the
// context collects cost counters and materialized byproducts. With tracing
// enabled (Context.TraceNodes non-nil) every compiled operator is wrapped
// with a per-node trace recorder; the wrap observes the batch stream
// without touching it, so traced and untraced runs are byte-identical.
func Compile(n plan.Node, seed uint64, ctx *Context) (Operator, error) {
	op, err := compile(n, seed, ctx)
	if err != nil {
		return nil, err
	}
	return traceWrap(op, n, ctx), nil
}

// compile is the per-node lowering; recursion goes through Compile so
// every interior operator gets its trace wrap.
func compile(n plan.Node, seed uint64, ctx *Context) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return NewTableScan(t.Table, ctx), nil

	case *plan.SynopsisScan:
		return NewSynopsisScan(t.Sample, t.InBuffer, ctx), nil

	case *plan.Filter:
		// A filter directly above a base-table scan drives zone-map pruning:
		// the scan skips partitions whose zones prove the predicate
		// unsatisfiable. The FilterOp stays on top, so the output stream is
		// the unpruned scan's — pruning only reduces the scanned bytes and
		// tuples.
		if sc, ok := t.Child.(*plan.Scan); ok {
			ts := NewTableScan(sc.Table, ctx)
			ts.Prune = t.Pred
			return NewFilterOp(traceWrap(ts, sc, ctx), t.Pred, ctx)
		}
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewFilterOp(child, t.Pred, ctx)

	case *plan.Aggregate:
		return newPipelineOp(t.Child, "an aggregate", aggReads(t.GroupBy, t.Aggs), seed, ctx, func(in storage.Schema) (sink, error) {
			return resolveAggSpec(in, t.GroupBy, t.Aggs)
		})

	case *plan.SketchJoin:
		return newPipelineOp(t.Probe, "a sketch-join", sketchReads(t), seed, ctx, func(in storage.Schema) (sink, error) {
			return newSketchSink(t, in, seed, ctx)
		})

	case *plan.SynopsisOp:
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewSamplerOp(child, t, seed, ctx)

	case *plan.Sort:
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewSortOp(child, t.By, t.Desc, t.Limit, ctx)
	}
	return nil, fmt.Errorf("exec: cannot compile plan node %T", n)
}
