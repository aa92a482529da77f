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

// colConstraint is the region a source predicate confines one column to:
// a numeric interval and/or a finite set of admissible values.
type colConstraint struct {
	hasRange       bool
	lo, hi         float64
	loOpen, hiOpen bool
	eq             []storage.Value // if non-empty: value ∈ eq (IN / string EQ)
}

func newColConstraint() *colConstraint {
	return &colConstraint{lo: math.Inf(-1), hi: math.Inf(1)}
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

// constraintsOf folds the terms of a predicate into per-column constraints.
func constraintsOf(p Pred) map[string]*colConstraint {
	out := make(map[string]*colConstraint)
	for _, t := range p {
		cc := out[t.Col]
		if cc == nil {
			cc = newColConstraint()
			out[t.Col] = cc
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
	return out
}

// sameValue reports that a column equal to a is provably equal to b too,
// under the comparison's equality: numeric values compare across int64 and
// float64 (within float64's exact integer range), strings with strings.
// NaN equals nothing.
func sameValue(a, b storage.Value) bool {
	c, ok := zoneCmp(a, b)
	return ok && c == 0
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

// Implies reports whether predicate a logically implies predicate b, using a
// conservative, sound analysis over their terms. nil b is TRUE (always
// implied); nil a implies only nil b.
//
// This is the subsumption direction the planner needs: a stored synopsis with
// filter F_s can serve a query with filter F_q when F_q ⇒ F_s (the synopsis
// retained at least the rows the query needs; a compensating filter removes
// the rest).
func Implies(a, b Pred) bool {
	if len(b) == 0 {
		return true
	}
	if len(a) == 0 {
		return false
	}
	if CanonicalPredicate(a) == CanonicalPredicate(b) {
		return true
	}
	src := constraintsOf(a)
	aRendered := make(map[string]bool, len(a))
	for _, t := range a {
		aRendered[t.String()] = true
	}
	for _, t := range b {
		if aRendered[t.String()] {
			continue // identical term present in a
		}
		cc := src[t.Col]
		if cc == nil || !impliedBy(cc, t) {
			return false
		}
	}
	return true
}

// impliedBy reports whether every value admitted by cc satisfies t.
func impliedBy(cc *colConstraint, t Term) bool {
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
				if c, ok := zoneCmp(v, t.Val); !ok || c == 0 {
					return false // v may equal the excluded value
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
// cardinality model.
func Selectivity(p Pred, tbl *storage.Table) float64 {
	if len(p) == 0 {
		return 1
	}
	sel := 1.0
	st := tbl.Stats()
	for _, t := range p {
		i := tbl.Schema().Index(t.Col)
		if i < 0 {
			continue // a term on a column of another relation
		}
		cs := st.Columns[i]
		switch {
		case t.Op == IN:
			if cs.Distinct > 0 {
				sel *= math.Min(1, float64(len(t.List))/float64(cs.Distinct))
			}
		case t.Op == EQ:
			if cs.Distinct > 0 {
				sel *= 1 / float64(cs.Distinct)
			}
		case t.Op == NE:
			if cs.Distinct > 0 {
				sel *= 1 - 1/float64(cs.Distinct)
			}
		default: // range term on a numeric column
			if t.Val.Typ.Numeric() && cs.Max > cs.Min {
				v := t.Val.AsFloat()
				frac := (v - cs.Min) / (cs.Max - cs.Min)
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
