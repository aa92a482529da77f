package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
)

// Compile lowers a logical plan into a physical operator tree. A root is an
// Aggregate or a SketchJoin — the two sinks of the one morsel pipeline —
// under an optional Sort; a Scan or a Filter over one compiles on its own,
// as the build side of a join or of an inline sketch build does. A Join
// compiles only as part of a pipeline's spine: anywhere else it is an error,
// like any other shape the spine does not cover. The seed drives every
// random choice (sampling, which happens only on the spine) so runs are
// reproducible; the context collects cost counters and materialized
// byproducts. With tracing enabled (Context.TraceNodes non-nil) every
// compiled operator is wrapped with a per-node trace recorder; the wrap
// observes the batch stream without touching it, so traced and untraced runs
// are byte-identical.
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
	case *plan.Scan, *plan.Filter:
		op, err := lowerBuild(t, "a leaf chain", ctx)
		if err != nil {
			return nil, err
		}
		return leafRoot{op, ctx.Pool}, nil

	case *plan.Aggregate:
		return newPipelineOp(t.Child, "an aggregate", t.GroupBy, aggReads(t.Aggs), seed, ctx, func(in storage.Schema, src *groupSource) (sink, error) {
			return resolveAggSpec(in, t.GroupBy, t.Aggs, src)
		})

	case *plan.SketchJoin:
		return newPipelineOp(t.Probe, "a sketch-join", t.GroupBy, sketchReads(t), seed, ctx, func(in storage.Schema, src *groupSource) (sink, error) {
			return newSketchSink(t, in, src, ctx)
		})

	case *plan.Sort:
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewSortOp(child, t.By, t.Desc, t.Limit, ctx)
	}
	return nil, fmt.Errorf("exec: cannot compile plan node %T", n)
}

// compileBuild is the one build-side lowering, shared by a spine join's
// right input and an inline sketch build (where names which, for the error).
// Every sample lives on the spine — the planner puts the fact table first —
// so a build side is σ(base table): a Scan, or a Filter directly over one.
// Anything else is an error naming the node. No seed: nothing here draws.
func compileBuild(n plan.Node, where string, ctx *Context) (Operator, error) {
	op, err := lowerBuild(n, where, ctx)
	if err != nil {
		return nil, err
	}
	return traceWrap(op, n, ctx), nil
}

// lowerBuild is compileBuild without the trace wrap of n itself. The base
// table is read by the spine's scan, morselScan, as one morsel covering every
// row, and a filter directly above it drives the same zone-map pruning the
// spine's leaf does (pipeline.open): partitions whose zones prove the
// predicate unsatisfiable are skipped. The FilterOp stays on top, so the
// output stream is the unpruned scan's — pruning only reduces the scanned
// bytes and tuples.
func lowerBuild(n plan.Node, where string, ctx *Context) (Operator, error) {
	f, filtered := n.(*plan.Filter)
	if filtered {
		n = f.Child
	}
	sc, ok := n.(*plan.Scan)
	if !ok {
		return nil, fmt.Errorf("exec: cannot compile %T in %s: a build side is Scan or Filter(Scan)", n, where)
	}
	whole := &pipeline{leaf: sc.Table, leafBase: true, leafSchema: sc.Table.Schema()}
	src := &morselScan{whole: whole, ctx: ctx}
	if !filtered {
		return src, nil
	}
	whole.prune = f.Pred
	return NewFilterOp(traceWrap(src, sc, ctx), f.Pred, ctx)
}

// leafRoot is a leaf chain compiled as a plan's root. Its scan re-points
// one batch at every call, which a build side's consumer releases before
// the next; a root's consumer (Run) keeps every batch, so each one leaves
// as a batch of its own: its selected rows copied out, or a view of it.
type leafRoot struct {
	Operator
	pool *storage.VecPool
}

// Next implements Operator.
func (r leafRoot) Next() (*storage.Batch, error) {
	b, err := r.Operator.Next()
	if b == nil || b.Sel != nil {
		return b.Materialize(r.pool), err
	}
	return b.View(), nil
}

// buildSource is the base table a build side reads, nil for a shape
// compileBuild refuses.
func buildSource(n plan.Node) *storage.Table {
	if f, ok := n.(*plan.Filter); ok {
		n = f.Child
	}
	if sc, ok := n.(*plan.Scan); ok {
		return sc.Table
	}
	return nil
}
