package expr

import (
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/tasterdb/taster/internal/storage"
)

// CanonicalPredicate renders a predicate with its terms sorted, so that
// reordered but equal predicates produce identical signatures.
func CanonicalPredicate(p Pred) string {
	parts := make([]string, len(p))
	for i, t := range p {
		parts[i] = t.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// colConstraint is the region the terms of a predicate on one Float64 or
// String column confine it to: a numeric interval and/or a finite set of
// admissible values.
type colConstraint struct {
	hasRange       bool
	lo, hi         float64
	loOpen, hiOpen bool
	eq             []storage.Value // if non-empty: value ∈ eq (IN / string EQ)
}

func (c *colConstraint) tightenLo(v float64, open bool) {
	c.hasRange = true
	if v > c.lo || (v == c.lo && open && !c.loOpen) {
		c.lo, c.loOpen = v, open
	}
}

func (c *colConstraint) tightenHi(v float64, open bool) {
	c.hasRange = true
	if v < c.hi || (v == c.hi && open && !c.hiOpen) {
		c.hi, c.hiOpen = v, open
	}
}

// constraintOf folds the terms of p on column col into its constraint.
func constraintOf(p Pred, col string) colConstraint {
	cc := colConstraint{lo: math.Inf(-1), hi: math.Inf(1)}
	for _, t := range p {
		if t.Col != col {
			continue
		}
		switch t.Op {
		case IN:
			cc.eq = mergeEqSets(cc.eq, t.List)
		case EQ:
			if t.Val.Typ.Numeric() {
				v := t.Val.AsFloat()
				cc.tightenLo(v, false)
				cc.tightenHi(v, false)
			}
			cc.eq = mergeEqSets(cc.eq, []storage.Value{t.Val})
		case LT:
			if t.Val.Typ.Numeric() {
				cc.tightenHi(t.Val.AsFloat(), true)
			}
		case LE:
			if t.Val.Typ.Numeric() {
				cc.tightenHi(t.Val.AsFloat(), false)
			}
		case GT:
			if t.Val.Typ.Numeric() {
				cc.tightenLo(t.Val.AsFloat(), true)
			}
		case GE:
			if t.Val.Typ.Numeric() {
				cc.tightenLo(t.Val.AsFloat(), false)
			}
		}
	}
	return cc
}

// sameValue reports that a Float64 or String column equal to literal a is
// equal to literal b too: numeric literals compare as float64, as the
// column's kernel compares them, strings with strings. NaN equals nothing.
func sameValue(a, b storage.Value) bool {
	if a.Typ.Numeric() && b.Typ.Numeric() {
		return a.AsFloat() == b.AsFloat()
	}
	return a.Typ == storage.String && b.Typ == storage.String && a.S == b.S
}

// mergeEqSets intersects two admissible-value sets; a nil set means
// "unconstrained", so the other set wins.
func mergeEqSets(a, b []storage.Value) []storage.Value {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var out []storage.Value
	for _, x := range a {
		for _, y := range b {
			if sameValue(x, y) {
				out = append(out, x)
				break
			}
		}
	}
	if out == nil {
		out = []storage.Value{} // contradictory; empty but non-nil
	}
	return out
}

// Implies reports whether predicate a logically implies predicate b over
// the columns of schema s, using a conservative, sound analysis over their
// terms. A term of b is implied when a holds an identical term (the same
// rendering), or when the terms of a on its column confine that column to
// values the term admits: an Int64 column in exact integer intervals
// (intsImply), a Float64 or String column by its colConstraint. A term on a
// column s cannot type is implied only by an identical term. nil b is TRUE
// (always implied); nil a implies only nil b.
//
// This is the subsumption direction the planner needs: a stored synopsis with
// filter F_s can serve a query with filter F_q when F_q ⇒ F_s (the synopsis
// retained at least the rows the query needs; a compensating filter removes
// the rest).
func Implies(a, b Pred, s storage.Schema) bool {
	if len(b) == 0 {
		return true
	}
	if len(a) == 0 {
		return false
	}
	rendered := make([]string, len(a))
	for i, t := range a {
		rendered[i] = t.String()
	}
	for _, t := range b {
		if slices.Contains(rendered, t.String()) {
			continue // identical term present in a
		}
		ci, ok := s.Index(t.Col), false
		switch {
		case ci < 0:
		case s[ci].Typ == storage.Int64:
			ok = intsImply(a, t)
		case s[ci].Typ == storage.Float64 || s[ci].Typ == storage.String:
			cc := constraintOf(a, t.Col)
			ok = cc.implies(t)
		}
		if !ok {
			return false
		}
	}
	return true
}

// intsImply reports whether the terms of a on t's Int64 column confine it
// to integers t admits (termInts; an IN term's, one of its literals'): the
// interval a's comparisons other than <> leave does, or, for one IN term of
// a, each of its literals' integers within that interval do.
func intsImply(a Pred, t Term) bool {
	admits := func(x Interval) bool {
		if t.Op != IN {
			return x.within(termInts(t.Op, t.Val))
		}
		return slices.ContainsFunc(t.List, func(v storage.Value) bool { return x.within(termInts(EQ, v)) })
	}
	iv := allInts
	for _, u := range a {
		if u.Col == t.Col && u.Op != IN && u.Op != NE {
			iv = iv.and(termInts(u.Op, u.Val))
		}
	}
	if admits(iv) {
		return true
	}
	for _, u := range a {
		if u.Col == t.Col && u.Op == IN && !slices.ContainsFunc(u.List, func(v storage.Value) bool { return !admits(termInts(EQ, v).and(iv)) }) {
			return true
		}
	}
	return false
}

// implies reports whether every value admitted by cc satisfies t.
func (cc *colConstraint) implies(t Term) bool {
	switch t.Op {
	case IN:
		return eqSubset(cc.eq, t.List)
	case EQ:
		if eqSubset(cc.eq, []storage.Value{t.Val}) {
			return true
		}
		return t.Val.Typ.Numeric() && cc.hasRange &&
			cc.lo == cc.hi && !cc.loOpen && !cc.hiOpen && cc.lo == t.Val.AsFloat()
	case NE:
		if len(cc.eq) > 0 {
			for _, v := range cc.eq {
				if sameValue(v, t.Val) {
					return false // v equals the excluded value
				}
			}
			return true
		}
		if t.Val.Typ.Numeric() && cc.hasRange {
			v := t.Val.AsFloat()
			return v < cc.lo || v > cc.hi ||
				(v == cc.lo && cc.loOpen) || (v == cc.hi && cc.hiOpen)
		}
		return false
	case LT, LE, GT, GE:
		if !t.Val.Typ.Numeric() {
			return false
		}
		v := t.Val.AsFloat()
		if len(cc.eq) > 0 && allEqNumericSatisfy(cc.eq, t.Op, v) {
			return true
		}
		if !cc.hasRange {
			return false
		}
		switch t.Op {
		case LT:
			return cc.hi < v || (cc.hi == v && cc.hiOpen)
		case LE:
			return cc.hi <= v
		case GT:
			return cc.lo > v || (cc.lo == v && cc.loOpen)
		case GE:
			return cc.lo >= v
		}
	}
	return false
}

func allEqNumericSatisfy(eq []storage.Value, op CmpOp, v float64) bool {
	if len(eq) == 0 {
		return false
	}
	for _, e := range eq {
		if !e.Typ.Numeric() {
			return false
		}
		x := e.AsFloat()
		ok := false
		switch op {
		case LT:
			ok = x < v
		case LE:
			ok = x <= v
		case GT:
			ok = x > v
		case GE:
			ok = x >= v
		}
		if !ok {
			return false
		}
	}
	return true
}

// eqSubset reports whether sub is a non-empty set entirely contained in sup.
func eqSubset(sub, sup []storage.Value) bool {
	if len(sub) == 0 {
		return false
	}
	for _, x := range sub {
		found := false
		for _, y := range sup {
			if sameValue(x, y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// EqualityColumns returns the columns constrained by equality or IN terms
// in the predicate — the candidates the planner adds to the stratification
// set when their distribution is skewed (paper §IV-A).
func EqualityColumns(p Pred) []string {
	var out []string
	for _, t := range p {
		if (t.Op == IN || t.Op == EQ) && !slices.Contains(out, t.Col) {
			out = append(out, t.Col)
		}
	}
	sort.Strings(out)
	return out
}

// DedupCols returns the sorted, de-duplicated column list.
func DedupCols(cols []string) []string {
	seen := make(map[string]bool, len(cols))
	out := make([]string, 0, len(cols))
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Selectivity estimates the fraction of rows of tbl satisfying the
// predicate's terms, assuming independence. Used by the planner's
// cardinality model. An =, IN or <> term reads its column's distinct count
// (the column's group part); a range term reads only the column's bounds,
// and takes the 0.3 default when their span is not finite (finiteSpan).
func Selectivity(p Pred, tbl *storage.Table) float64 {
	if len(p) == 0 {
		return 1
	}
	sel := 1.0
	for _, t := range p {
		i := tbl.Schema().Index(t.Col)
		if i < 0 {
			continue // a term on a column of another relation
		}
		switch {
		case t.Op == IN:
			if d := tbl.ColumnGroups(i).Distinct; d > 0 {
				sel *= math.Min(1, float64(len(t.List))/float64(d))
			}
		case t.Op == EQ:
			if d := tbl.ColumnGroups(i).Distinct; d > 0 {
				sel *= 1 / float64(d)
			}
		case t.Op == NE:
			if d := tbl.ColumnGroups(i).Distinct; d > 0 {
				sel *= 1 - 1/float64(d)
			}
		default: // range term on a numeric column, by its zone-map bounds
			if mn, mx, ok := tbl.Bounds(i); ok && t.Val.Typ.Numeric() && tbl.Schema()[i].Typ.Numeric() && finiteSpan(mn.AsFloat(), mx.AsFloat()) {
				lo, hi, v := mn.AsFloat(), mx.AsFloat(), t.Val.AsFloat()
				frac := (v - lo) / (hi - lo)
				frac = math.Max(0, math.Min(1, frac))
				if t.Op == GT || t.Op == GE {
					frac = 1 - frac
				}
				sel *= frac
			} else {
				sel *= 0.3
			}
		}
	}
	return math.Max(sel, 1e-9)
}

// finiteSpan reports whether a range term may be interpolated between the
// bounds lo and hi: their span is positive and finite. An infinite bound,
// or two whose difference overflows, would make the fraction Inf/Inf.
func finiteSpan(lo, hi float64) bool {
	span := hi - lo
	return span > 0 && !math.IsInf(span, 1)
}
