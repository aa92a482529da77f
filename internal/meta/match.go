package meta

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
)

// Requirements describes the query subplan a synopsis would have to serve
// (paper §IV-A, "Matching subplans to materialized synopses"): σ(Table).
type Requirements struct {
	// Table is the base table the subplan reads.
	Table string
	// Filter is the subplan's filter conjunction (nil = no filters).
	Filter expr.Pred
	// StratCols are the stratification attributes the query needs
	// (grouping + skew/join-key additions); the synopsis must stratify on a
	// superset to guarantee group coverage.
	StratCols []string
	// AggCols are the columns being aggregated ("" entries for COUNT(*)
	// are omitted); the synopsis must have been sized for them.
	AggCols []string
	// Accuracy is the query's accuracy requirement. Only samples are held
	// to it; an exact sketch-join serves every accuracy.
	Accuracy stats.AccuracySpec
}

// Match is a usable materialized synopsis plus compensation instructions.
type Match struct {
	Entry *Entry
	// CompensateFilter is non-nil when the synopsis is strictly more general
	// than the subplan; applying the query's own filter above the synopsis
	// scan removes the extraneous tuples (paper: "some mismatches are
	// addressed by adding filtering and projection operators").
	CompensateFilter expr.Pred
}

// MatchSamples returns the stored sample synopses usable for the
// requirements, per the paper's rules. has says which synopses are stored
// (the plan set's warehouse view); it is asked before any implication check,
// so a candidate that was never built costs nothing here. The by-table index
// supplies the same base relation; a synopsis keeps every column of its
// table, so any projection is covered. The rest:
//
//  1. synopsis filter weaker than or equal to the query filter, implication
//     reasoned over the types of the table's columns,
//  2. synopsis stratification ⊇ the query's stratification (group coverage),
//  3. aggregated columns covered (sample sized for their variance; COUNT(*)
//     is always covered: every weighted sample estimates cardinalities),
//  4. synopsis accuracy at least as strict as the query's.
func (s *Store) MatchSamples(req Requirements, has func(uint64) bool) []Match {
	var out []Match
	es, sch := s.lookupTable(req.Table, has)
	for _, e := range es {
		d := &e.Desc
		if d.Kind != plan.UniformSample && d.Kind != plan.DistinctSample {
			continue
		}
		if !expr.Implies(req.Filter, d.FilterPred, sch) {
			continue
		}
		if !superset(d.StratCols, req.StratCols) || !superset(d.AggCols, req.AggCols) {
			continue
		}
		if !d.Accuracy.AtLeastAsStrict(req.Accuracy) {
			continue
		}
		m := Match{Entry: e}
		if !expr.Implies(d.FilterPred, req.Filter, sch) { // the filters are not equivalent
			m.CompensateFilter = req.Filter
		}
		out = append(out, m)
	}
	return out
}

// MatchSketchJoins returns usable stored sketch-join synopses (has as for
// MatchSamples). Sketches cannot be compensated after the fact (the per-key
// aggregation is baked in), so the build-side filter must be exactly
// equivalent, and join keys and the aggregate column must be identical. The
// payload is exact, so it serves any accuracy: req.Accuracy is not read.
func (s *Store) MatchSketchJoins(req Requirements, buildKeys []string, aggCol string, has func(uint64) bool) []Match {
	var out []Match
	es, sch := s.lookupTable(req.Table, has)
	for _, e := range es {
		d := &e.Desc
		if d.Kind != plan.SketchJoinSynopsis {
			continue
		}
		if !expr.Implies(req.Filter, d.FilterPred, sch) || !expr.Implies(d.FilterPred, req.Filter, sch) {
			continue
		}
		if !sameCols(d.BuildKeys, buildKeys) || d.AggCol != aggCol {
			continue
		}
		out = append(out, Match{Entry: e})
	}
	return out
}

// superset reports whether sup ⊇ sub as sets (paper §IV-A: "the set of
// stratification attributes of the stored synopsis is a superset of the
// stratification attributes of the subplan").
func superset(sup, sub []string) bool {
	have := make(map[string]bool, len(sup))
	for _, c := range sup {
		have[c] = true
	}
	for _, c := range sub {
		if !have[c] {
			return false
		}
	}
	return true
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := expr.DedupCols(a), expr.DedupCols(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
