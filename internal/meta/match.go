package meta

import (
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
)

// Requirements describes the query subplan a synopsis would have to serve
// (paper §IV-A, "Matching subplans to materialized synopses").
type Requirements struct {
	// Sig is the signature of the query subplan to replace.
	Sig plan.Signature
	// Filter is the subplan's filter conjunction (nil = no filters).
	Filter expr.Expr
	// NeedCols are the columns consumed above the subplan (group-by,
	// aggregate, join keys); the synopsis output must cover them.
	NeedCols []string
	// StratCols are the stratification attributes the query needs
	// (grouping + skew/join-key additions); the synopsis must stratify on a
	// superset to guarantee group coverage.
	StratCols []string
	// AggCols are the columns being aggregated ("" entries for COUNT(*)
	// are omitted); the synopsis must have been sized for them.
	AggCols []string
	// Accuracy is the query's accuracy requirement.
	Accuracy stats.AccuracySpec
}

// Match is a usable materialized synopsis plus compensation instructions.
type Match struct {
	Entry *Entry
	// CompensateFilter is non-nil when the synopsis is strictly more general
	// than the subplan; applying the query's own filter above the synopsis
	// scan removes the extraneous tuples (paper: "some mismatches are
	// addressed by adding filtering and projection operators").
	CompensateFilter expr.Expr
}

// MatchSamples returns the materialized sample synopses usable for the
// requirements, per the paper's rules:
//
//  1. identical base relations and join predicates (subsumption core),
//  2. synopsis filter weaker than or equal to the query filter,
//  3. synopsis output ⊇ the columns the query consumes,
//  4. synopsis stratification ⊇ the query's stratification (group coverage),
//  5. aggregated columns covered (sample sized for their variance),
//  6. synopsis accuracy at least as strict as the query's.
func (s *Store) MatchSamples(req Requirements) []Match {
	var out []Match
	for _, e := range s.lookupIndex(req.Sig.IndexKey()) {
		d := &e.Desc
		if d.Kind != plan.UniformSample && d.Kind != plan.DistinctSample {
			continue
		}
		if d.Location == LocNone {
			continue
		}
		if !d.Sig.SameRelationsAndJoins(req.Sig) {
			continue
		}
		if !expr.Implies(req.Filter, d.FilterPred) {
			continue
		}
		if !plan.OutputSuperset(d.Sig.Output, req.NeedCols) {
			continue
		}
		if !plan.ColSuperset(d.StratCols, req.StratCols) {
			continue
		}
		if !aggCovered(d, req.AggCols) {
			continue
		}
		if !d.Accuracy.AtLeastAsStrict(req.Accuracy) {
			continue
		}
		m := Match{Entry: e}
		if !filtersEquivalent(req.Filter, d.FilterPred) {
			m.CompensateFilter = req.Filter
		}
		out = append(out, m)
	}
	return out
}

// MatchSketchJoins returns usable materialized sketch-join synopses. Sketches
// cannot be compensated after the fact (the per-key aggregation is baked in),
// so the build-side filter must be exactly equivalent, and join keys and the
// aggregate column must be identical.
func (s *Store) MatchSketchJoins(req Requirements, buildKeys []string, aggCol string) []Match {
	var out []Match
	for _, e := range s.lookupIndex(req.Sig.IndexKey()) {
		d := &e.Desc
		if d.Kind != plan.SketchJoinSynopsis || d.Location == LocNone {
			continue
		}
		if !d.Sig.SameRelationsAndJoins(req.Sig) {
			continue
		}
		if !filtersEquivalent(req.Filter, d.FilterPred) {
			continue
		}
		if !sameCols(d.BuildKeys, buildKeys) || d.AggCol != aggCol {
			continue
		}
		if !d.Accuracy.AtLeastAsStrict(req.Accuracy) {
			continue
		}
		out = append(out, Match{Entry: e})
	}
	return out
}

// aggCovered reports whether every aggregated column was part of the
// synopsis' sizing. COUNT(*) ("" removed upstream) is always covered: every
// weighted sample estimates cardinalities.
func aggCovered(d *Descriptor, aggCols []string) bool {
	if len(aggCols) == 0 {
		return true
	}
	have := make(map[string]bool, len(d.AggCols))
	for _, c := range d.AggCols {
		have[c] = true
	}
	for _, c := range aggCols {
		if !have[c] {
			return false
		}
	}
	return true
}

func filtersEquivalent(a, b expr.Expr) bool {
	if a == nil && b == nil {
		return true
	}
	return expr.Implies(a, b) && expr.Implies(b, a)
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
