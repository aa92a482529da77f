package exec

import (
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// tracedOp wraps a compiled operator with per-query trace recording: rows
// and batches emitted, physical rows touched (for selection density), and
// the inclusive wall duration of Open+Next. Batches pass through untouched
// — tracing observes the stream, never copies or mutates it, which is what
// keeps traced and untraced executions byte-identical (proven by the obs
// differential test in internal/core).
type tracedOp struct {
	child Operator
	node  *obs.TraceNode
	clock obs.Clock
}

// traceWrap wraps op with trace recording keyed to its plan node; a no-op
// (returns op unchanged) when the context has tracing off.
func traceWrap(op Operator, n plan.Node, ctx *Context) Operator {
	if ctx.TraceNodes == nil {
		return op
	}
	tn := &obs.TraceNode{Name: n.String()}
	ctx.TraceNodes[n] = tn
	clock := ctx.Clock
	if clock == nil {
		clock = obs.Frozen{}
	}
	return &tracedOp{child: op, node: tn, clock: clock}
}

// Open implements Operator.
func (t *tracedOp) Open() error {
	start := t.clock.Now() //taster:clock trace timings are recorded after execution and never feed results
	err := t.child.Open()
	t.node.Duration += t.clock.Since(start) //taster:clock trace timings are recorded after execution and never feed results
	return err
}

// Next implements Operator.
func (t *tracedOp) Next() (*storage.Batch, error) {
	start := t.clock.Now() //taster:clock trace timings are recorded after execution and never feed results
	b, err := t.child.Next()
	t.node.Duration += t.clock.Since(start) //taster:clock trace timings are recorded after execution and never feed results
	if b != nil {
		t.node.Batches++
		t.node.RowsOut += int64(b.Rows())
		t.node.PhysRows += int64(b.Len())
	}
	return b, err
}

// Close implements Operator.
func (t *tracedOp) Close() error { return t.child.Close() }

// Schema implements Operator.
func (t *tracedOp) Schema() storage.Schema { return t.child.Schema() }

// Intervals forwards IntervalReporter so result assembly sees the terminal
// aggregate's intervals through the wrapper (nil when the wrapped operator
// is not a reporter — the same result assembly reads from an unwrapped
// non-reporter root).
func (t *tracedOp) Intervals() [][]stats.Interval {
	if rep, ok := t.child.(IntervalReporter); ok {
		return rep.Intervals()
	}
	return nil
}

// markCached records, under tracing, that the build side rooted at n was
// answered from the join cache: its operators were compiled and trace-wrapped
// but never opened, and their zero counters would read as a build that
// produced nothing. The root carries the cached table's row count, so the
// enclosing join's rows-in is what a fresh build would have reported.
func markCached(n plan.Node, rows int64, ctx *Context) {
	if ctx.TraceNodes == nil {
		return
	}
	plan.Walk(n, func(m plan.Node) {
		if tn := ctx.TraceNodes[m]; tn != nil {
			tn.Cached = true
		}
	})
	if tn := ctx.TraceNodes[n]; tn != nil {
		tn.RowsOut = rows
	}
}

// BuildTraceTree assembles the per-query trace tree for a compiled plan:
// every node Compile traced carries its recorded counters; nodes whose work
// ran inside a morsel pipeline appear as fused stubs. built counts the
// synopses materialized per plan node (attached after the run, from
// RunStats). RowsIn derives from the traced children's output.
func BuildTraceTree(root plan.Node, nodes map[plan.Node]*obs.TraceNode, built map[plan.Node]int64) *obs.TraceNode {
	tn := nodes[root]
	if tn == nil {
		tn = &obs.TraceNode{Name: root.String(), Fused: true}
	}
	tn.Materialized += built[root]
	for _, c := range root.Children() {
		child := BuildTraceTree(c, nodes, built)
		tn.Children = append(tn.Children, child)
		if !child.Fused {
			tn.RowsIn += child.RowsOut
		}
	}
	return tn
}
