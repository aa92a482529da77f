package exec

import (
	"time"

	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// tracer records one plan node's per-query trace counters: the batches it
// handed on, their live and physical rows (for selection density), and its
// inclusive wall duration — the time of the nodes below it included. The
// traced nodes are a run's root (the sink, and a Sort above it) and each
// build side's Scan and Filter; a scan counts every batch it reads, a filter
// every batch with a survivor. A nil tracer — tracing off — records nothing.
// Recording observes batches without copying or touching them, which is
// what keeps traced and untraced runs byte-identical (proven by the obs
// differential test in internal/core).
type tracer struct {
	node  *obs.TraceNode
	clock obs.Clock
}

// newTracer registers n's trace node in ctx.TraceNodes and returns its
// recorder, or nil when the context has tracing off.
func newTracer(n plan.Node, ctx *Context) *tracer {
	if ctx.TraceNodes == nil {
		return nil
	}
	tn := &obs.TraceNode{Name: n.String()}
	ctx.TraceNodes[n] = tn
	clock := ctx.Clock
	if clock == nil {
		clock = obs.Frozen{}
	}
	return &tracer{node: tn, clock: clock}
}

// now reads the clock for a later since; the zero time when untraced.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock.Now() //taster:clock trace timings are recorded after execution and never feed results
}

// since adds the time from start on to the node's duration.
func (t *tracer) since(start time.Time) {
	if t != nil {
		t.node.Duration += t.clock.Since(start) //taster:clock trace timings are recorded after execution and never feed results
	}
}

// count records one batch the node handed on.
func (t *tracer) count(b *storage.Batch) {
	if t != nil {
		t.node.Batches++
		t.node.RowsOut += int64(b.Rows())
		t.node.PhysRows += int64(b.Len())
	}
}

// BuildTraceTree assembles the per-query trace tree for a compiled plan:
// every node Compile traced carries its recorded counters; nodes whose work
// ran inside a morsel pipeline appear as fused stubs. A node that built a
// synopsis the run kept (built, RunStats.Built) counts it as materialized:
// a sample's rows, 1 for a sketch. RowsIn derives from the traced
// children's output.
func BuildTraceTree(root plan.Node, nodes map[plan.Node]*obs.TraceNode, built []Built) *obs.TraceNode {
	tn := nodes[root]
	if tn == nil {
		tn = &obs.TraceNode{Name: root.String(), Fused: true}
	}
	for _, b := range built {
		if b.Node != root {
			continue
		}
		if s, ok := b.Synopsis.(*synopses.Sample); ok {
			tn.Materialized += int64(s.Rows.NumRows())
		} else {
			tn.Materialized++
		}
	}
	for _, c := range root.Children() {
		child := BuildTraceTree(c, nodes, built)
		tn.Children = append(tn.Children, child)
		if !child.Fused {
			tn.RowsIn += child.RowsOut
		}
	}
	return tn
}
