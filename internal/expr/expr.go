// Package expr provides columnar expression evaluation for the query engine,
// plus the predicate analysis (conjunct extraction, implication) that the
// planner uses to match query subplans against materialized synopses
// (paper §IV-A: a synopsis matches when its filtering predicates are weaker
// than or equal to the query's).
package expr

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tasterdb/taster/internal/storage"
)

// Expr is a scalar expression evaluated over a batch, producing one vector.
type Expr interface {
	// Type returns the result type under the given input schema.
	Type(s storage.Schema) (storage.Type, error)
	// Eval evaluates the expression over every row of the batch.
	Eval(b *storage.Batch) (*storage.Vector, error)
	// String returns a canonical rendering; identical expressions render
	// identically, which plan signatures rely on.
	String() string
	// Columns appends the referenced column names to dst.
	Columns(dst []string) []string
}

// Col references a column by (possibly qualified) name.
type Col struct{ Name string }

// Type implements Expr.
func (c *Col) Type(s storage.Schema) (storage.Type, error) {
	i := s.Index(c.Name)
	if i < 0 {
		return 0, fmt.Errorf("expr: unknown column %q in schema %v", c.Name, s.Names())
	}
	return s[i].Typ, nil
}

// Eval implements Expr.
func (c *Col) Eval(b *storage.Batch) (*storage.Vector, error) {
	i := b.Schema.Index(c.Name)
	if i < 0 {
		return nil, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return b.Vecs[i], nil
}

// String implements Expr.
func (c *Col) String() string { return c.Name }

// Columns implements Expr.
func (c *Col) Columns(dst []string) []string { return append(dst, c.Name) }

// Const is a literal value.
type Const struct{ Val storage.Value }

// Int returns an int64 literal.
func Int(v int64) *Const { return &Const{Val: storage.IntValue(v)} }

// Float returns a float64 literal.
func Float(v float64) *Const { return &Const{Val: storage.FloatValue(v)} }

// Str returns a string literal.
func Str(v string) *Const { return &Const{Val: storage.StringValue(v)} }

// Type implements Expr.
func (c *Const) Type(storage.Schema) (storage.Type, error) { return c.Val.Typ, nil }

// Eval implements Expr.
func (c *Const) Eval(b *storage.Batch) (*storage.Vector, error) {
	n := b.Len()
	v := storage.NewVector(c.Val.Typ, n)
	for i := 0; i < n; i++ {
		v.Append(c.Val)
	}
	return v, nil
}

// String implements Expr.
func (c *Const) String() string {
	if c.Val.Typ == storage.String {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

// Columns implements Expr.
func (c *Const) Columns(dst []string) []string { return dst }

// BinOp is an arithmetic operator.
type BinOp uint8

// Arithmetic operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
)

func (o BinOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Bin is a binary arithmetic expression over numeric operands.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Type implements Expr. Int op Int stays Int (except Div); anything with a
// Float becomes Float.
func (e *Bin) Type(s storage.Schema) (storage.Type, error) {
	lt, err := e.L.Type(s)
	if err != nil {
		return 0, err
	}
	rt, err := e.R.Type(s)
	if err != nil {
		return 0, err
	}
	if !lt.Numeric() || !rt.Numeric() {
		return 0, fmt.Errorf("expr: arithmetic on non-numeric types %s, %s", lt, rt)
	}
	if lt == storage.Int64 && rt == storage.Int64 && e.Op != Div {
		return storage.Int64, nil
	}
	return storage.Float64, nil
}

// Eval implements Expr.
func (e *Bin) Eval(b *storage.Batch) (*storage.Vector, error) {
	lv, err := e.L.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	if lv.Typ == storage.Int64 && rv.Typ == storage.Int64 && e.Op != Div {
		out := storage.NewVector(storage.Int64, n)
		for i := 0; i < n; i++ {
			l, r := lv.I64[i], rv.I64[i]
			var v int64
			switch e.Op {
			case Add:
				v = l + r
			case Sub:
				v = l - r
			case Mul:
				v = l * r
			}
			out.I64 = append(out.I64, v)
		}
		return out, nil
	}
	out := storage.NewVector(storage.Float64, n)
	for i := 0; i < n; i++ {
		l, r := lv.Float(i), rv.Float(i)
		var v float64
		switch e.Op {
		case Add:
			v = l + r
		case Sub:
			v = l - r
		case Mul:
			v = l * r
		case Div:
			if r != 0 {
				v = l / r
			}
		}
		out.F64 = append(out.F64, v)
	}
	return out, nil
}

// String implements Expr.
func (e *Bin) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// Columns implements Expr.
func (e *Bin) Columns(dst []string) []string { return e.R.Columns(e.L.Columns(dst)) }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Cmp compares two expressions, producing a Bool vector.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Type implements Expr.
func (e *Cmp) Type(s storage.Schema) (storage.Type, error) {
	lt, err := e.L.Type(s)
	if err != nil {
		return 0, err
	}
	rt, err := e.R.Type(s)
	if err != nil {
		return 0, err
	}
	if lt.Numeric() != rt.Numeric() && lt != rt {
		return 0, fmt.Errorf("expr: comparing %s with %s", lt, rt)
	}
	return storage.Bool, nil
}

// Eval implements Expr.
func (e *Cmp) Eval(b *storage.Batch) (*storage.Vector, error) {
	lv, err := e.L.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	out := storage.NewVector(storage.Bool, n)
	switch {
	case lv.Typ == storage.Int64 && rv.Typ == storage.Int64:
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpOrd(lv.I64[i], rv.I64[i], e.Op))
		}
	case lv.Typ == storage.String && rv.Typ == storage.String:
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpOrd(lv.Str[i], rv.Str[i], e.Op))
		}
	case lv.Typ == storage.Bool && rv.Typ == storage.Bool:
		for i := 0; i < n; i++ {
			l, r := lv.B[i], rv.B[i]
			var v bool
			switch e.Op {
			case EQ:
				v = l == r
			case NE:
				v = l != r
			default:
				v = cmpOrd(b2i(l), b2i(r), e.Op)
			}
			out.B = append(out.B, v)
		}
	default: // mixed numeric
		for i := 0; i < n; i++ {
			out.B = append(out.B, cmpOrd(lv.Float(i), rv.Float(i), e.Op))
		}
	}
	return out, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpOrd[T int64 | float64 | string](l, r T, op CmpOp) bool {
	switch op {
	case EQ:
		return l == r
	case NE:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	}
	return false
}

// String implements Expr.
func (e *Cmp) String() string {
	return e.L.String() + " " + e.Op.String() + " " + e.R.String()
}

// Columns implements Expr.
func (e *Cmp) Columns(dst []string) []string { return e.R.Columns(e.L.Columns(dst)) }

// LogicOp is a boolean connective.
type LogicOp uint8

// Boolean connectives.
const (
	And LogicOp = iota
	Or
)

func (o LogicOp) String() string { return [...]string{"AND", "OR"}[o] }

// Logic combines two boolean expressions.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// Type implements Expr.
func (e *Logic) Type(s storage.Schema) (storage.Type, error) {
	for _, sub := range []Expr{e.L, e.R} {
		t, err := sub.Type(s)
		if err != nil {
			return 0, err
		}
		if t != storage.Bool {
			return 0, fmt.Errorf("expr: %s operand is %s, want BOOLEAN", e.Op, t)
		}
	}
	return storage.Bool, nil
}

// Eval implements Expr.
func (e *Logic) Eval(b *storage.Batch) (*storage.Vector, error) {
	lv, err := e.L.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	out := storage.NewVector(storage.Bool, n)
	for i := 0; i < n; i++ {
		if e.Op == And {
			out.B = append(out.B, lv.B[i] && rv.B[i])
		} else {
			out.B = append(out.B, lv.B[i] || rv.B[i])
		}
	}
	return out, nil
}

// String implements Expr.
func (e *Logic) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// Columns implements Expr.
func (e *Logic) Columns(dst []string) []string { return e.R.Columns(e.L.Columns(dst)) }

// Not negates a boolean expression.
type Not struct{ E Expr }

// Type implements Expr.
func (e *Not) Type(s storage.Schema) (storage.Type, error) {
	t, err := e.E.Type(s)
	if err != nil {
		return 0, err
	}
	if t != storage.Bool {
		return 0, fmt.Errorf("expr: NOT operand is %s, want BOOLEAN", t)
	}
	return storage.Bool, nil
}

// Eval implements Expr.
func (e *Not) Eval(b *storage.Batch) (*storage.Vector, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return nil, err
	}
	out := storage.NewVector(storage.Bool, v.Len())
	for _, x := range v.B {
		out.B = append(out.B, !x)
	}
	return out, nil
}

// String implements Expr.
func (e *Not) String() string { return "NOT (" + e.E.String() + ")" }

// Columns implements Expr.
func (e *Not) Columns(dst []string) []string { return e.E.Columns(dst) }

// In tests membership of an expression in a literal list.
type In struct {
	E    Expr
	Vals []storage.Value
}

// Type implements Expr.
func (e *In) Type(s storage.Schema) (storage.Type, error) {
	if _, err := e.E.Type(s); err != nil {
		return 0, err
	}
	return storage.Bool, nil
}

// Eval implements Expr.
func (e *In) Eval(b *storage.Batch) (*storage.Vector, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return nil, err
	}
	n := v.Len()
	out := storage.NewVector(storage.Bool, n)
	for i := 0; i < n; i++ {
		x := v.Get(i)
		hit := false
		for _, c := range e.Vals {
			if x.Equal(c) {
				hit = true
				break
			}
		}
		out.B = append(out.B, hit)
	}
	return out, nil
}

// String implements Expr.
func (e *In) String() string {
	parts := make([]string, len(e.Vals))
	for i, v := range e.Vals {
		if v.Typ == storage.String {
			parts[i] = "'" + v.S + "'"
		} else {
			parts[i] = v.String()
		}
	}
	sort.Strings(parts)
	return e.E.String() + " IN (" + strings.Join(parts, ", ") + ")"
}

// Columns implements Expr.
func (e *In) Columns(dst []string) []string { return e.E.Columns(dst) }

// EvalBool evaluates a boolean expression with the interpreter and returns
// the indices of the matching rows. No query runs it: it is the reference the
// kernel and zone-map tests compare the compiled evaluator against.
func EvalBool(e Expr, b *storage.Batch) ([]int, error) {
	v, err := e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Typ != storage.Bool {
		return nil, fmt.Errorf("expr: filter expression %s is %s, want BOOLEAN", e, v.Typ)
	}
	idx := make([]int, 0, len(v.B))
	for i, ok := range v.B {
		if ok {
			idx = append(idx, i)
		}
	}
	return idx, nil
}
