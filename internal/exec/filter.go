package exec

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// refine is the one filter step, a Filter's stage in the morsel loop
// (morselWorker.push) and in a build side's read (buildSide.drain). It runs
// prog, compiled selection kernels (expr.CompileFilter) and the only
// evaluator, over b's live rows with the kernel scratch sc, and returns b
// under its survivors' selection vector — no row is copied — or nil, b
// released, when none survives. Every row the predicate evaluated is
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
