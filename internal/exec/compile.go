package exec

import (
	"fmt"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
)

// Compile lowers a logical plan into the one run that answers it: the
// morsel pipeline ending in the plan's sink — an Aggregate or a SketchJoin
// root — with, under a Sort, the order its one batch is put in. Any other
// root is an error, and so is any shape the spine does not cover below the
// sink: a Join compiles only as part of a spine, and a build side only as a
// Scan or a Filter over one. The seed drives every random choice (sampling,
// which happens only on the spine) so runs are reproducible; the context
// collects cost counters and materialized byproducts. With tracing enabled
// (Context.TraceNodes non-nil) the root, the Sort and every build side's
// Scan and Filter record their counters; recording observes batches without
// touching them, so traced and untraced runs are byte-identical.
func Compile(n plan.Node, seed uint64, ctx *Context) (*PipelineOp, error) {
	srt, sorted := n.(*plan.Sort)
	if sorted {
		n = srt.Child
	}
	var p *PipelineOp
	var err error
	switch t := n.(type) {
	case *plan.Aggregate:
		p, err = newPipelineOp(t.Child, "an aggregate", t.GroupBy, aggReads(t.Aggs), seed, ctx, func(in storage.Schema, src *groupSource) (sink, error) {
			return resolveAggSpec(in, t.GroupBy, t.Aggs, src)
		})
	case *plan.SketchJoin:
		p, err = newPipelineOp(t.Probe, "a sketch-join", t.GroupBy, sketchReads(t), seed, ctx, func(in storage.Schema, src *groupSource) (sink, error) {
			return newSketchSink(t, in, src, ctx)
		})
	default:
		return nil, fmt.Errorf("exec: cannot compile plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	p.trace = newTracer(n, ctx)
	if sorted {
		if p.sort, err = newSortSpec(srt, p.Schema(), ctx); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Run runs a compiled plan once and returns its one batch: the sink's
// groups in key order, or in the Sort's order and cut to its limit. The
// run's intervals are read afterwards from p.Intervals, row-aligned with
// the batch.
func Run(p *PipelineOp) (*storage.Batch, error) {
	start := p.trace.now()
	out, err := p.run()
	p.trace.since(start)
	if err != nil {
		return nil, err
	}
	p.trace.count(out)
	if s := p.sort; s != nil {
		out, p.intervals = s.apply(out, p.intervals, p.ctx)
		s.trace.since(start)
		s.trace.count(out)
	}
	return out, nil
}

// buildSide is a join's right input or an inline sketch build. Every sample
// lives on the spine — the planner puts the fact table first — so a build
// side is σ(base table): a Scan, or a Filter directly over one. It is read
// once per run, serially, by drain, the spine's own read loop over the
// whole table as one morsel.
type buildSide struct {
	// table is the base table as a one-morsel pipeline: its leaf scan reads
	// every column, and a Filter's predicate zone-prunes it (pipeline.open).
	table *pipeline
	// filter is the Filter's program, compiled once; nil for a bare Scan.
	filter *expr.Filter
	// scan and kept are the Scan's and the Filter's trace records (kept is
	// nil for a bare Scan; both are nil untraced).
	scan, kept *tracer
}

// newBuildSide lowers n as a build side (where names which, for the error).
// Anything but a Scan or a Filter directly over one is an error naming the
// node, as is a predicate no selection kernel runs. No seed: nothing here
// draws.
func newBuildSide(n plan.Node, where string, ctx *Context) (*buildSide, error) {
	f, filtered := n.(*plan.Filter)
	if filtered {
		n = f.Child
	}
	sc, ok := n.(*plan.Scan)
	if !ok {
		return nil, fmt.Errorf("exec: cannot compile %T in %s: a build side is Scan or Filter(Scan)", n, where)
	}
	s := &buildSide{table: &pipeline{leaf: sc.Table, leafBase: true, leafSchema: sc.Table.Schema()}}
	s.scan = newTracer(sc, ctx)
	if filtered {
		prog, err := expr.CompileFilter(f.Pred, s.table.leafSchema)
		if err != nil {
			return nil, err
		}
		s.table.prune, s.filter = f.Pred, prog
		s.kept = newTracer(f, ctx)
	}
	return s, nil
}

// drain reads the build side: the prune-and-charge call (pipeline.open),
// then one cursor over every row of the partitions it leaves, each batch
// charged its scan's CPU tuples and refined by the filter — by the read's
// key-index candidates when open found them — whose selection buffer is
// borrowed from the run's pool for the drain, as is the candidates'
// bitmap. fn gets every batch with a live row — the cursor's one batch,
// re-pointed for the next, under its survivors' selection — and must be
// done with it when it returns. A filter whose zone test prunes partitions
// prunes only bytes and tuples: their rows would all have failed it.
func (s *buildSide) drain(ctx *Context, fn func(b *storage.Batch)) {
	start := s.scan.now()
	read := s.table.open(ctx)
	cur := s.table.cursor()
	cur.Seek(0, s.table.leaf.NumRows(), read.keep)
	var leaf, filtered storage.Batch
	var sc expr.Scratch
	if s.filter != nil {
		filtered.Sel = ctx.Pool.GetSel(storage.BatchSize)
	}
	prog, rows := read.filter(s.filter)
	for cur.Next(&leaf) {
		s.scan.since(start)
		s.scan.count(&leaf)
		ctx.Stats.CPUTuples += int64(leaf.Len())
		b := &leaf
		if s.filter != nil {
			b = refine(b, prog, rows, &filtered, &sc, ctx)
		}
		s.kept.since(start)
		if b != nil {
			s.kept.count(b)
			fn(b)
		}
		start = s.scan.now()
	}
	ctx.Pool.PutSel(filtered.Sel)
	read.done(ctx)
	s.scan.since(start)
	s.kept.since(start)
}

// markCached records, under tracing, that the join cache answered the build
// side: it was lowered but never drained, and its zero counters would read
// as a build that produced nothing. Its top node carries the cached table's
// row count, so the enclosing join's rows-in is what a fresh build would
// have reported.
func (s *buildSide) markCached(rows int64) {
	if s.scan == nil {
		return
	}
	s.scan.node.Cached = true
	top := s.scan
	if s.kept != nil {
		s.kept.node.Cached = true
		top = s.kept
	}
	top.node.RowsOut = rows
}

// buildSource is the base table a build side over n reads, nil for a shape
// newBuildSide refuses.
func buildSource(n plan.Node) *storage.Table {
	if f, ok := n.(*plan.Filter); ok {
		n = f.Child
	}
	if sc, ok := n.(*plan.Scan); ok {
		return sc.Table
	}
	return nil
}
