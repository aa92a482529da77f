package exec

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// refine is the one filter step, a Filter's stage in the morsel loop
// (morselWorker.push) and in a build side's read (buildSide.drain). It runs
// prog, compiled selection kernels (expr.CompileFilter) and the only
// evaluator, over b's live rows with the kernel scratch sc, and returns b's
// vectors under its survivors' selection — no row is copied — in out, the
// stage's own batch header, whose Sel is the stage's selection buffer: b
// itself when every row of a dense batch survives, nil when none does.
// Every row the predicate evaluated is charged, not just survivors:
// selective filters do the same CPU work per input row, and the
// fully-filtered batch must not be free either. Live rows (Rows, not Len): a
// batch arriving with a selection already attached only has its selected
// rows evaluated.
func refine(b *storage.Batch, prog *expr.Filter, out *storage.Batch, sc *expr.Scratch, ctx *Context) *storage.Batch {
	ctx.Stats.CPUTuples += int64(b.Rows())
	ctx.Obs.Kernel()
	sel := prog.Refine(b, b.Sel, out.Sel[:0], sc)
	switch {
	case len(sel) == 0:
		out.Sel = sel
		return nil
	case b.Sel == nil && len(sel) == b.Len():
		out.Sel = sel
		return b
	}
	*out = *b
	out.Sel = sel
	return out
}
