package exec

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// FilterOp drops rows failing the predicate, which runs as compiled
// selection-vector kernels (expr.CompileFilter) and nothing else: survivors
// are recorded as a selection vector attached to the input batch instead of
// being gathered into fresh vectors, so a filter costs no per-batch copy and
// downstream sel-aware consumers (the aggregation tables) fold rows straight
// from the scan's columns. On the morsel spine the program is the run's,
// compiled once, and the scratch is the worker's (buildMorselChain).
type FilterOp struct {
	Child Operator
	ctx   *Context
	prog  *expr.Filter
	sc    *expr.Scratch
}

// NewFilterOp wraps child with a predicate compiled against the child's
// schema. A predicate outside the kernel subset is an error — the one
// planner.Query.Validate reports first for any query that came through it.
func NewFilterOp(child Operator, pred expr.Pred, ctx *Context) (*FilterOp, error) {
	prog, err := expr.CompileFilter(pred, child.Schema())
	if err != nil {
		return nil, err
	}
	return &FilterOp{Child: child, ctx: ctx, prog: prog, sc: new(expr.Scratch)}, nil
}

// Open implements Operator.
func (f *FilterOp) Open() error { return f.Child.Open() }

// Next implements Operator.
func (f *FilterOp) Next() (*storage.Batch, error) {
	for {
		b, err := f.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		// Charge every row the predicate evaluated, not just survivors:
		// selective filters do the same CPU work per input row, and the
		// fully-filtered batch below must not be free either. Live rows
		// (Rows, not Len): a batch arriving with a selection already attached
		// only has its selected rows evaluated.
		f.ctx.Stats.CPUTuples += int64(b.Rows())
		f.ctx.Obs.Kernel()
		in := b.Sel // nil = dense batch: kernels stream the raw columns
		out := f.prog.Refine(b, in, f.ctx.Pool.GetSel(b.Len()), f.sc)
		if in != nil {
			b.Sel = nil
			f.ctx.Pool.PutSel(in)
		}
		if len(out) == 0 {
			f.ctx.Pool.PutSel(out)
			f.ctx.Pool.Release(b)
			continue
		}
		if in == nil && len(out) == b.Len() {
			f.ctx.Pool.PutSel(out)
			return b, nil
		}
		b.Sel = out
		return b, nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.Child.Close() }

// Schema implements Operator.
func (f *FilterOp) Schema() storage.Schema { return f.Child.Schema() }
