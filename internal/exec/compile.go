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
		return lowerBuild(t, "a leaf chain", ctx)

	case *plan.Aggregate:
		return newPipelineOp(t.Child, "an aggregate", aggReads(t.GroupBy, t.Aggs), seed, ctx, func(in storage.Schema) (sink, error) {
			return resolveAggSpec(in, t.GroupBy, t.Aggs)
		})

	case *plan.SketchJoin:
		return newPipelineOp(t.Probe, "a sketch-join", sketchReads(t), seed, ctx, func(in storage.Schema) (sink, error) {
			return newSketchSink(t, in, ctx)
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

// lowerBuild is compileBuild without the trace wrap of n itself. A filter
// directly above a base-table scan drives zone-map pruning: the scan skips
// partitions whose zones prove the predicate unsatisfiable. The FilterOp
// stays on top, so the output stream is the unpruned scan's — pruning only
// reduces the scanned bytes and tuples.
func lowerBuild(n plan.Node, where string, ctx *Context) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return NewTableScan(t.Table, ctx), nil
	case *plan.Filter:
		if sc, ok := t.Child.(*plan.Scan); ok {
			ts := NewTableScan(sc.Table, ctx)
			ts.Prune = t.Pred
			return NewFilterOp(traceWrap(ts, sc, ctx), t.Pred, ctx)
		}
		n = t.Child
	}
	return nil, fmt.Errorf("exec: cannot compile %T in %s: a build side is Scan or Filter(Scan)", n, where)
}

// buildSource is the base table a build side reads (compileBuild has
// checked the shape).
func buildSource(n plan.Node) *storage.Table {
	if f, ok := n.(*plan.Filter); ok {
		n = f.Child
	}
	return n.(*plan.Scan).Table
}
