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
//
// A leaf batch — dense, its rows the table's from b.Start on — whose read a
// key index narrowed (pipeline.keyed) comes with rows, the range's rows as a
// bitmap by table row: its live rows are then the ones the bitmap holds,
// and prog, the predicate's other terms (nil: none), runs on them alone, in
// place. The batch is charged as the kernels' pass would charge it, so the
// two narrowings of one read select the same rows at the same charge.
func refine(b *storage.Batch, prog *expr.Filter, rows storage.KeyMask, out *storage.Batch, sc *expr.Scratch, ctx *Context) *storage.Batch {
	ctx.Stats.CPUTuples += int64(b.Rows())
	ctx.Obs.Kernel()
	var sel []int32
	if rows == nil {
		sel = prog.Refine(b, b.Sel, out.Sel[:0], sc)
	} else {
		sel = rows.AppendRows(out.Sel[:0], b.Start, b.Len())
		if prog != nil && len(sel) > 0 {
			sel = prog.Refine(b, sel, sel[:0], sc)
		}
	}
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
