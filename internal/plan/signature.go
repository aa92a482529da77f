package plan

import (
	"sort"
	"strings"

	"github.com/tasterdb/taster/internal/expr"
)

// Signature is the canonical identity of a logical subplan: "each synopsis
// (candidate or materialized) corresponds to a unique logical subplan – the
// one of which the results it summarizes" (paper §IV-A). Two subplans with
// equal signatures compute the same relation up to row order.
type Signature struct {
	Tables    []string // sorted base table names
	JoinPreds []string // sorted canonical join predicates "a.x=b.y"
	Filters   []string // sorted canonical filter conjuncts
	Output    []string // sorted output column names
}

// SignatureOf derives the signature of a subplan by walking it: scans name
// the tables, filters accumulate predicates, Output is the subplan's schema.
// Every synopsis summarizes σ(base table) — a sample sits directly on the
// fact table's scan and a sketch-join's build side is σ(fact) — so the walk
// meets only Scan and Filter. JoinPreds is filled by callers that key whole
// queries (the planner's plan cache).
func SignatureOf(n Node) Signature {
	var sig Signature
	collect(n, &sig)
	out := n.Schema().Names()
	sig.Output = expr.DedupCols(out)
	sort.Strings(sig.Tables)
	sort.Strings(sig.JoinPreds)
	sort.Strings(sig.Filters)
	return sig
}

func collect(n Node, sig *Signature) {
	switch t := n.(type) {
	case *Scan:
		sig.Tables = append(sig.Tables, t.Table.Name)
	case *Filter:
		for _, c := range expr.Conjuncts(t.Pred) {
			sig.Filters = append(sig.Filters, c.String())
		}
	}
	for _, c := range n.Children() {
		collect(c, sig)
	}
}

// Key returns a deterministic string form usable as a map key.
func (s Signature) Key() string {
	return "T[" + strings.Join(s.Tables, ",") + "] J[" + strings.Join(s.JoinPreds, ",") +
		"] F[" + strings.Join(s.Filters, ",") + "] O[" + strings.Join(s.Output, ",") + "]"
}

// IndexKey returns the coarse lookup key the metadata store indexes
// synopses under: base relations plus join attributes (paper §IV-A: "all
// candidate synopses ... are indexed using their base relations as the key.
// In the case of joins, the join attribute(s) are also included").
func (s Signature) IndexKey() string {
	return "T[" + strings.Join(s.Tables, ",") + "] J[" + strings.Join(s.JoinPreds, ",") + "]"
}

// SameRelationsAndJoins reports whether two signatures cover the same base
// tables with identical join predicates — the non-negotiable part of
// subsumption (filters and projections can be compensated; tables and joins
// cannot).
func (s Signature) SameRelationsAndJoins(o Signature) bool {
	return eqSlices(s.Tables, o.Tables) && eqSlices(s.JoinPreds, o.JoinPreds)
}

func eqSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// OutputSuperset reports whether candidate's output columns cover all of
// required (after sorting/dedup). Used for projection subsumption.
func OutputSuperset(candidate, required []string) bool {
	have := make(map[string]bool, len(candidate))
	for _, c := range candidate {
		have[c] = true
	}
	for _, r := range required {
		if !have[r] {
			return false
		}
	}
	return true
}

// ColSuperset reports whether sup ⊇ sub treating both as sets. Stratification
// matching uses it (paper §IV-A: "the set of stratification attributes of
// the stored synopsis is a superset of the stratification attributes of the
// subplan").
func ColSuperset(sup, sub []string) bool { return OutputSuperset(sup, sub) }
