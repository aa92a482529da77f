package exec

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// FilterOp drops rows failing the predicate. Column-vs-constant predicates
// compile to selection-vector kernels (expr.CompileFilter): survivors are
// recorded as a selection vector attached to the input batch instead of being
// gathered into fresh vectors, so a filter costs no per-batch copy and
// downstream sel-aware consumers (the aggregation tables) fold rows straight
// from the scan's columns. Expressions outside the kernel subset — or any
// filter when Context.DisableKernels is set — take the interpreted fallback:
// Eval to a boolean vector, then gather, exactly the pre-kernel path. Both
// paths select the same rows bit-for-bit and charge the same cost counters.
type FilterOp struct {
	Child Operator
	Pred  expr.Expr
	ctx   *Context
	idx   []int        // fallback selection scratch, reused across batches
	prog  *expr.Filter // compiled kernels; nil on the fallback path
	sc    expr.Scratch
}

// NewFilterOp wraps child with a predicate, compiling it to selection
// kernels when its shape allows.
func NewFilterOp(child Operator, pred expr.Expr, ctx *Context) *FilterOp {
	f := &FilterOp{Child: child, Pred: pred, ctx: ctx}
	if !ctx.DisableKernels {
		f.prog, _ = expr.CompileFilter(pred, child.Schema())
	}
	return f
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
		if f.prog != nil {
			f.ctx.Obs.Kernel()
			in := b.Sel // nil = dense batch: kernels stream the raw columns
			out := f.prog.Refine(b, in, f.ctx.Pool.GetSel(b.Len()), &f.sc)
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
		f.ctx.Obs.Fallback()
		b = b.Materialize(f.ctx.Pool)
		idx, err := expr.EvalBoolInto(f.Pred, b, f.idx[:0])
		if err != nil {
			return nil, err
		}
		f.idx = idx
		if len(idx) == 0 {
			f.ctx.Pool.Release(b)
			continue
		}
		if len(idx) == b.Len() {
			return b, nil
		}
		out := b.GatherPooled(idx, f.ctx.Pool)
		f.ctx.Pool.Release(b)
		return out, nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.Child.Close() }

// Schema implements Operator.
func (f *FilterOp) Schema() storage.Schema { return f.Child.Schema() }
