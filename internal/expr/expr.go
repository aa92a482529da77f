// Package expr is the engine's filter language and its analysis. A WHERE
// clause is a Pred: an ordered conjunction of Terms, each one column compared
// with a literal (col op literal) or tested against a literal list (col IN
// (...)). That is everything the SQL front door builds — BETWEEN is two terms
// — and it is the shape the paper's subsumption matching reasons about
// (§IV-A: a synopsis matches when its filtering predicates are weaker than or
// equal to the query's). The package compiles a Pred into selection kernels
// (kernels.go), decides implication and selectivity over its terms (pred.go)
// and refutes it against partition zone maps (zone.go).
package expr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/tasterdb/taster/internal/storage"
)

// CmpOp is a term's operator: a comparison, or IN.
type CmpOp uint8

// Term operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
	IN
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">=", "IN"}[o] }

// Term is one conjunct of a filter: Col Op Val, or, when Op is IN, Col IN
// List. Col is the column's (qualified) name.
type Term struct {
	Col  string
	Op   CmpOp
	Val  storage.Value   // a comparison's literal
	List []storage.Value // an IN term's literals
}

// Compare returns the term col op v.
func Compare(col string, op CmpOp, v storage.Value) Term {
	return Term{Col: col, Op: op, Val: v}
}

// In returns the term col IN (vals...).
func In(col string, vals ...storage.Value) Term {
	return Term{Col: col, Op: IN, List: vals}
}

// String renders the term; an IN list renders its literals sorted, so two
// orderings of one list render identically, which plan signatures rely on.
func (t Term) String() string {
	if t.Op != IN {
		return t.Col + " " + t.Op.String() + " " + literal(t.Val)
	}
	parts := make([]string, len(t.List))
	for i, v := range t.List {
		parts[i] = literal(v)
	}
	sort.Strings(parts)
	return t.Col + " IN (" + strings.Join(parts, ", ") + ")"
}

// literal renders a value as SQL: strings quoted.
func literal(v storage.Value) string {
	if v.Typ == storage.String {
		return "'" + v.S + "'"
	}
	return v.String()
}

// Pred is a conjunction of terms, kept in the order they were written; nil
// (or empty) means no filter.
type Pred []Term

// String renders the conjunction left-deep — t1, (t1 AND t2),
// ((t1 AND t2) AND t3) — the plan text executor seeds derive from.
func (p Pred) String() string {
	if len(p) == 0 {
		return ""
	}
	s := p[0].String()
	for _, t := range p[1:] {
		s = "(" + s + " AND " + t.String() + ")"
	}
	return s
}

// Columns appends each term's column to dst.
func (p Pred) Columns(dst []string) []string {
	for _, t := range p {
		dst = append(dst, t.Col)
	}
	return dst
}

// EvalBool evaluates the predicate one row and one Value at a time and
// returns the indices of the matching rows. No query runs it: it is the
// oracle the kernel, zone-map and executor tests hold the compiled evaluator
// to, and shares no code with it.
func EvalBool(p Pred, b *storage.Batch) ([]int, error) {
	cols := make([]int, len(p))
	for k, t := range p {
		if cols[k] = b.Schema.Index(t.Col); cols[k] < 0 {
			return nil, fmt.Errorf("expr: unknown column %q", t.Col)
		}
	}
	idx := make([]int, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		ok := true
		for k, t := range p {
			ok = ok && t.holds(b.Vecs[cols[k]].Get(i))
		}
		if ok {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

// holds is the term's verdict on one value: x IN (v...) holds iff x = v
// holds for some v.
func (t Term) holds(x storage.Value) bool {
	if t.Op == IN {
		return slices.ContainsFunc(t.List, func(v storage.Value) bool { return satisfies(x, EQ, v) })
	}
	return satisfies(x, t.Op, t.Val)
}

// satisfies reports x op v: int64 against int64 in integer domain, any other
// numeric pair as float64 (NaN is unordered: only <> holds), strings
// byte-wise. A pair of different type classes, or a boolean, satisfies
// nothing.
func satisfies(x storage.Value, op CmpOp, v storage.Value) bool {
	var c int
	switch {
	case x.Typ == storage.Int64 && v.Typ == storage.Int64:
		c = cmp.Compare(x.I, v.I)
	case x.Typ.Numeric() && v.Typ.Numeric():
		a, b := x.AsFloat(), v.AsFloat()
		if math.IsNaN(a) || math.IsNaN(b) {
			return op == NE
		}
		c = cmp.Compare(a, b)
	case x.Typ == storage.String && v.Typ == storage.String:
		c = strings.Compare(x.S, v.S)
	default:
		return false
	}
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}
