// Package plan defines the logical query plans Taster's planner operates on,
// including the synopsis operators the paper promotes to "first-class
// citizens" of planning (§IV), and the canonical subplan signatures used to
// identify and match synopses across queries.
package plan

import (
	"fmt"
	"strings"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// Node is a logical plan operator. Nodes are immutable after construction;
// rewrites build new trees sharing subtrees.
type Node interface {
	// Children returns the input operators.
	Children() []Node
	// String renders one line for plan display.
	String() string
}

// Scan reads a base table.
type Scan struct {
	Table *storage.Table
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string { return "Scan(" + s.Table.Name + ")" }

// Filter keeps rows satisfying Pred.
type Filter struct {
	Child Node
	Pred  expr.Pred
}

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// String implements Node.
func (f *Filter) String() string { return "Filter(" + f.Pred.String() + ")" }

// Join is an inner equi-join on LeftKeys[i] = RightKeys[i].
type Join struct {
	Left, Right Node
	LeftKeys    []string
	RightKeys   []string
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i] + " = " + j.RightKeys[i]
	}
	return "Join(" + strings.Join(parts, " AND ") + ")"
}

// AggSpec is one aggregate in an Aggregate node.
type AggSpec struct {
	Kind  stats.AggKind
	Col   string // aggregated column; "" for COUNT(*)
	Alias string
}

// DefaultAlias returns a name like "sum_l_qty" when Alias is empty.
func (a AggSpec) DefaultAlias() string {
	if a.Alias != "" {
		return a.Alias
	}
	col := a.Col
	if col == "" {
		col = "star"
	}
	col = strings.ReplaceAll(col, ".", "_")
	return strings.ToLower(a.Kind.String()) + "_" + col
}

// Aggregate groups by GroupBy columns and computes Aggs. When its input
// carries the sampler weight column, the physical operator automatically
// switches to Horvitz-Thompson estimation.
type Aggregate struct {
	Child   Node
	GroupBy []string
	Aggs    []AggSpec
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// String implements Node.
func (a *Aggregate) String() string {
	parts := make([]string, len(a.Aggs))
	for i, ag := range a.Aggs {
		col := ag.Col
		if col == "" {
			col = "*"
		}
		parts[i] = ag.Kind.String() + "(" + col + ")"
	}
	return "Aggregate(by=[" + strings.Join(a.GroupBy, ",") + "] " + strings.Join(parts, ", ") + ")"
}

// SynopsisKind enumerates the synopsis operator flavours.
type SynopsisKind uint8

// Synopsis flavours the planner injects.
const (
	UniformSample SynopsisKind = iota
	DistinctSample
	SketchJoinSynopsis
)

// String returns the flavour name.
func (k SynopsisKind) String() string {
	return [...]string{"uniform-sample", "distinct-sample", "sketch-join"}[k]
}

// SynopsisOp is the generic synopsis operator Γ^S injected below aggregators
// (paper §IV-A). It summarizes the output of Child. Whether the summary
// already exists (reuse) or will be built as a byproduct is decided later by
// the planner/tuner; the logical node carries the configuration only.
type SynopsisOp struct {
	Child     Node
	Kind      SynopsisKind
	P         float64  // sampling probability (samples)
	Delta     int      // minimum rows per stratum (distinct sample)
	StratCols []string // stratification attributes A, sorted
	Accuracy  stats.AccuracySpec
}

// Children implements Node.
func (s *SynopsisOp) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *SynopsisOp) String() string {
	return fmt.Sprintf("Synopsis(%s p=%.4g δ=%d A=[%s])",
		s.Kind, s.P, s.Delta, strings.Join(s.StratCols, ","))
}

// SynopsisScan reads a materialized sample from the warehouse/buffer,
// replacing the whole subplan the sample summarizes.
type SynopsisScan struct {
	SynopsisID uint64
	Sample     *synopses.Sample
	// Label names the summarized subplan for display.
	Label string
	// InBuffer marks samples served from the in-memory buffer (no I/O cost).
	InBuffer bool
}

// Children implements Node.
func (s *SynopsisScan) Children() []Node { return nil }

// String implements Node.
func (s *SynopsisScan) String() string {
	return fmt.Sprintf("SynopsisScan(#%d %s)", s.SynopsisID, s.Label)
}

// SketchJoin replaces Join + Aggregate for eligible queries (paper §II,
// §IV-A): the build side is summarized into its exact (count, sum) per join
// key — one row per distinct key — and the probe side streams against it.
// Group-by columns must come from the probe side.
type SketchJoin struct {
	Probe     Node   // scanned side (dimension/filtered side)
	BuildDesc string // label of the summarized build subplan
	Sketch    *synopses.SketchJoin
	// SynopsisID links to the metadata store entry; 0 when the sketch is
	// built inline during this query.
	SynopsisID uint64
	// Build is the subplan to summarize when Sketch must be built now.
	Build     Node
	ProbeKeys []string // join key columns on the probe side
	BuildKeys []string // join key columns on the build side
	AggCol    string   // build-side aggregate column ("" = COUNT)
	GroupBy   []string // probe-side grouping columns
	Aggs      []AggSpec
}

// Children implements Node.
func (s *SketchJoin) Children() []Node {
	if s.Build != nil {
		return []Node{s.Probe, s.Build}
	}
	return []Node{s.Probe}
}

// String implements Node.
func (s *SketchJoin) String() string {
	return fmt.Sprintf("SketchJoin(build=%s agg=%s)", s.BuildDesc, s.AggCol)
}

// Sort orders its input by the given columns (ascending unless Desc) and
// optionally truncates to Limit rows (0 = no limit). It sits above the
// aggregate in ORDER BY ... LIMIT queries.
type Sort struct {
	Child Node
	By    []string
	Desc  []bool
	Limit int
}

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Sort) String() string {
	parts := make([]string, len(s.By))
	for i, b := range s.By {
		parts[i] = b
		if i < len(s.Desc) && s.Desc[i] {
			parts[i] += " DESC"
		}
	}
	out := "Sort(" + strings.Join(parts, ", ")
	if s.Limit > 0 {
		out += fmt.Sprintf(" LIMIT %d", s.Limit)
	}
	return out + ")"
}

// Format renders the plan tree indented, for logs and the REPL.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(m Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(m.String())
		sb.WriteByte('\n')
		for _, c := range m.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
