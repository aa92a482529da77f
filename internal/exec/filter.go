package exec

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// FilterOp drops rows failing the predicate, which runs as compiled
// selection-vector kernels (expr.CompileFilter) and nothing else: survivors
// are recorded as a selection vector attached to the input batch instead of
// being gathered into fresh vectors, so a filter costs no per-batch copy and
// downstream sel-aware consumers fold rows straight from the scan's columns.
// It is a build side's filter; on the morsel spine a Filter is a stage of the
// morsel loop (morselWorker.push), which runs the same step, refine, with the
// run's program, compiled once, and the worker's scratch.
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
		if b = refine(b, f.prog, f.sc, f.ctx); b != nil {
			return b, nil
		}
	}
}

// refine is the one filter step: it runs prog over b's live rows with the
// kernel scratch sc and returns b under its survivors' selection, or nil —
// b released — when none survives. Every row the predicate evaluated is
// charged, not just survivors: selective filters do the same CPU work per
// input row, and the fully-filtered batch must not be free either. Live rows
// (Rows, not Len): a batch arriving with a selection already attached only
// has its selected rows evaluated.
func refine(b *storage.Batch, prog *expr.Filter, sc *expr.Scratch, ctx *Context) *storage.Batch {
	ctx.Stats.CPUTuples += int64(b.Rows())
	ctx.Obs.Kernel()
	in := b.Sel // nil = dense batch: kernels stream the raw columns
	out := prog.Refine(b, in, ctx.Pool.GetSel(b.Len()), sc)
	if in != nil {
		b.Sel = nil
		ctx.Pool.PutSel(in)
	}
	if len(out) == 0 {
		ctx.Pool.PutSel(out)
		ctx.Pool.Release(b)
		return nil
	}
	if in == nil && len(out) == b.Len() {
		ctx.Pool.PutSel(out)
		return b
	}
	b.Sel = out
	return b
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.Child.Close() }

// Schema implements Operator.
func (f *FilterOp) Schema() storage.Schema { return f.Child.Schema() }
