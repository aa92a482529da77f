package obs

import (
	"fmt"
	"strings"
	"time"
)

// TraceNode is one operator's execution record in a per-query trace: rows
// and batches out, physical rows touched (selection-vector density =
// RowsOut/PhysRows), synopses materialized at this node, and the inclusive
// wall duration of its Open+Next calls (zero under a frozen clock).
//
// Fused nodes are plan nodes whose work ran inside a fused physical
// operator (the morsel-driven parallel pipeline, or a filter fused into its
// scan's pruning) — they appear in the tree for plan shape but carry no
// per-operator counters of their own; the enclosing traced operator
// accounts their work.
//
// Cached nodes are a join build subtree the engine's join cache answered:
// its operators never ran in this query. The subtree's root keeps the cached
// table's row count in RowsOut; the nodes below it carry nothing.
type TraceNode struct {
	Name         string
	Fused        bool
	Cached       bool
	RowsIn       int64
	RowsOut      int64
	PhysRows     int64
	Batches      int64
	Materialized int64
	Duration     time.Duration
	Children     []*TraceNode
}

// Render formats the trace as an EXPLAIN-ANALYZE-style tree:
//
//	Aggregate[region | SUM(amount)]  rows=5 batches=1 time=1.2ms
//	└─ Filter(amount < 100)  rows=431/1000 sel=43.1% batches=2 time=800µs
//	   └─ Scan(sales)  (fused)
//
// A join build side served by the join cache renders as
// "Scan(orders)  (cached rows=150000)", nodes below its root as "(cached)".
//
// Output is deterministic for a deterministic execution under a frozen
// clock (durations render as 0s).
func (n *TraceNode) Render() string {
	if n == nil {
		return ""
	}
	var sb strings.Builder
	n.render(&sb, "", "", false)
	return sb.String()
}

func (n *TraceNode) render(sb *strings.Builder, prefix, childPrefix string, underCached bool) {
	sb.WriteString(prefix)
	sb.WriteString(n.Name)
	switch {
	case n.Cached && underCached:
		sb.WriteString("  (cached)")
	case n.Cached:
		fmt.Fprintf(sb, "  (cached rows=%d)", n.RowsOut)
	case n.Fused:
		sb.WriteString("  (fused)")
	default:
		fmt.Fprintf(sb, "  %s", n.statLine())
	}
	sb.WriteByte('\n')
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		c.render(sb, childPrefix+branch, childPrefix+cont, n.Cached)
	}
}

// statLine formats one node's counters.
func (n *TraceNode) statLine() string {
	var sb strings.Builder
	if n.PhysRows > 0 && n.PhysRows != n.RowsOut {
		fmt.Fprintf(&sb, "rows=%d/%d sel=%.1f%%", n.RowsOut, n.PhysRows,
			100*float64(n.RowsOut)/float64(n.PhysRows))
	} else {
		fmt.Fprintf(&sb, "rows=%d", n.RowsOut)
	}
	if n.RowsIn > 0 && n.RowsIn != n.RowsOut {
		fmt.Fprintf(&sb, " in=%d", n.RowsIn)
	}
	fmt.Fprintf(&sb, " batches=%d", n.Batches)
	if n.Materialized > 0 {
		fmt.Fprintf(&sb, " built=%d", n.Materialized)
	}
	fmt.Fprintf(&sb, " time=%s", n.Duration)
	return sb.String()
}
