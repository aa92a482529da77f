package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/plan"
)

// Compile lowers a logical plan into a physical operator tree. The seed
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
		// identical with pruning on or off — pruning only reduces the scanned
		// bytes and tuples.
		if sc, ok := t.Child.(*plan.Scan); ok && !ctx.DisablePrune {
			ts := NewTableScan(sc.Table, ctx)
			ts.Prune = t.Pred
			return NewFilterOp(traceWrap(ts, sc, ctx), t.Pred, ctx)
		}
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewFilterOp(child, t.Pred, ctx)

	case *plan.Join:
		left, err := Compile(t.Left, seed, ctx)
		if err != nil {
			return nil, err
		}
		right, err := Compile(t.Right, seed*31+7, ctx)
		if err != nil {
			return nil, err
		}
		j, err := NewHashJoinOp(left, right, t.LeftKeys, t.RightKeys, ctx)
		if err != nil {
			return nil, err
		}
		j.node = t
		return j, nil

	case *plan.Aggregate:
		// Scan→sample→filter→join→aggregate chains — single-table and
		// left-deep join plans alike — run on the morsel-driven parallel
		// executor. That is every aggregate the planner emits (a sketch-join
		// plan is rooted at a SketchJoin, which aggregates itself; core's
		// TestPlannerRootsRunOnTheMorselSpine), so any other shape is an
		// error here, not a second executor.
		pipe, err := matchParallelAgg(t)
		if err != nil {
			return nil, err
		}
		return NewParallelAggOp(pipe, seed, ctx)

	case *plan.SynopsisOp:
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewSamplerOp(child, t, seed, ctx)

	case *plan.SketchJoin:
		probe, err := Compile(t.Probe, seed, ctx)
		if err != nil {
			return nil, err
		}
		var build Operator
		if t.Sketch == nil && t.Build != nil {
			build, err = Compile(t.Build, seed*131+13, ctx)
			if err != nil {
				return nil, err
			}
		}
		return NewSketchJoinOp(t, probe, build, seed, ctx)

	case *plan.Sort:
		child, err := Compile(t.Child, seed, ctx)
		if err != nil {
			return nil, err
		}
		return NewSortOp(child, t.By, t.Desc, t.Limit, ctx)
	}
	return nil, fmt.Errorf("exec: cannot compile plan node %T", n)
}
