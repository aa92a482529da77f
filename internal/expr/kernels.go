package expr

import (
	"fmt"

	"github.com/tasterdb/taster/internal/storage"
)

// This file compiles boolean expressions into selection-vector kernels: typed
// tight loops that refine a []int32 of candidate physical row indices. It is
// the engine's only filter evaluator — exec.FilterOp runs nothing else, and
// planner.Query.Validate admits a query only if its filters compile here, so
// "the front door accepted it" and "exec can run it" are one predicate. The
// kernels hoist the type and operator dispatch out of the row loop, allocate
// nothing per batch (intermediate selections come from a reusable Scratch),
// and fuse conjunctions so later conjuncts only look at rows that survived
// earlier ones.
//
// What compiles: a column compared with a constant of its type class (numeric
// with numeric, string with string, bool with bool; either operand order), a
// column IN a literal list holding at least one value of its type class, and
// AND / OR / NOT over those. Everything else — column-vs-column, arithmetic
// operands, string-vs-number, an unknown column, a bare column or constant —
// is a compile error naming the sub-expression and the reason.
//
// Semantics contract: a compiled Filter selects exactly the rows for which
// Eval's boolean vector is true, bit-for-bit, including the IEEE edge cases —
// NaN compares false under every operator except <>, Value.Equal's strict
// same-type equality governs IN, and int64-vs-int64 comparisons stay in
// integer domain (never coerced through float64, which would fold values
// above 2^53). Eval runs in no query: it is the oracle this file's table
// tests and fuzzers (and zone_test.go) hold the kernels to.
//
// Selection-vector convention, shared with the exec package: a selection is
// an ascending list of physical row indices; nil means "every row of the
// batch" (the dense case, which gets its own loop bodies so the first
// conjunct streams the raw column without indirection). Every node maps an
// ascending input selection to an ascending subset — And refines
// sequentially, Or union-merges, Not complements against its input — so the
// invariant holds by construction.

// Filter is a compiled predicate program over a fixed input schema.
type Filter struct{ root selNode }

// CompileFilter compiles a boolean expression into selection kernels over
// schema s. The error names the first sub-expression outside the compilable
// subset and says why (see the file comment for what compiles).
func CompileFilter(e Expr, s storage.Schema) (*Filter, error) {
	n, err := compileNode(e, s)
	if err != nil {
		return nil, err
	}
	return &Filter{root: n}, nil
}

// Refine runs the program over one batch: in lists the candidate physical
// rows (ascending; nil = all rows), survivors are appended to out and
// returned. sc lends intermediate buffers; it may be shared across calls but
// not across goroutines.
func (f *Filter) Refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32 {
	return f.root.refine(b, in, out, sc)
}

// Scratch is a free list of intermediate selection buffers for Refine. One
// Scratch per operator instance: buffers grow to batch size once and are
// reused for every subsequent batch.
type Scratch struct{ free [][]int32 }

func (s *Scratch) get(n int) []int32 {
	if k := len(s.free) - 1; k >= 0 {
		b := s.free[k]
		s.free = s.free[:k]
		return b[:0]
	}
	return make([]int32, 0, n)
}

func (s *Scratch) put(b []int32) { s.free = append(s.free, b) }

// rowsIn is the candidate count of a (batch, selection) pair.
func rowsIn(b *storage.Batch, in []int32) int {
	if in == nil {
		return b.Len()
	}
	return len(in)
}

// selNode is one node of a compiled program. refine appends the surviving
// subset of in (ascending) onto out.
type selNode interface {
	refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32
}

// ---- compilation ----

func compileNode(e Expr, s storage.Schema) (selNode, error) {
	switch t := e.(type) {
	case *Logic:
		l, err := compileNode(t.L, s)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(t.R, s)
		if err != nil {
			return nil, err
		}
		if t.Op == And {
			return &andNode{kids: flattenAnd(l, r)}, nil
		}
		return &orNode{kids: flattenOr(l, r)}, nil
	case *Not:
		k, err := compileNode(t.E, s)
		if err != nil {
			return nil, err
		}
		return &notNode{kid: k}, nil
	case *Cmp:
		return compileCmp(t, s)
	case *In:
		return compileIn(t, s)
	}
	return nil, fmt.Errorf("expr: filter %v: not a boolean predicate", e)
}

// sameClass reports whether a value of type b can be compared with a column
// of type a: the numeric types mix, every other type only with itself.
func sameClass(a, b storage.Type) bool { return a == b || (a.Numeric() && b.Numeric()) }

// columnIndex resolves a filter's column against the schema; in is the
// sub-expression the error names.
func columnIndex(in Expr, c *Col, s storage.Schema) (int, error) {
	ci := s.Index(c.Name)
	if ci < 0 {
		return 0, fmt.Errorf("expr: filter %s: unknown column %q in schema %v", in, c.Name, s.Names())
	}
	return ci, nil
}

// flattenAnd/flattenOr merge nested same-connective nodes into one n-ary
// node, preserving left-to-right order. For And that is what makes conjunct
// fusion pay: one survivor list threads through all conjuncts instead of
// pairwise intermediate merges.
func flattenAnd(l, r selNode) []selNode {
	var kids []selNode
	if a, ok := l.(*andNode); ok {
		kids = append(kids, a.kids...)
	} else {
		kids = append(kids, l)
	}
	if a, ok := r.(*andNode); ok {
		kids = append(kids, a.kids...)
	} else {
		kids = append(kids, r)
	}
	return kids
}

func flattenOr(l, r selNode) []selNode {
	var kids []selNode
	if o, ok := l.(*orNode); ok {
		kids = append(kids, o.kids...)
	} else {
		kids = append(kids, l)
	}
	if o, ok := r.(*orNode); ok {
		kids = append(kids, o.kids...)
	} else {
		kids = append(kids, r)
	}
	return kids
}

// mirror returns the operator with operands swapped: c op x ⇔ x mirror(op) c.
func (o CmpOp) mirror() CmpOp { return [...]CmpOp{EQ, NE, GT, GE, LT, LE}[o] }

// splitColConst matches col-op-const and const-op-col (operator mirrored).
func splitColConst(e *Cmp) (*Col, storage.Value, CmpOp, bool) {
	if c, ok := e.L.(*Col); ok {
		if k, ok := e.R.(*Const); ok {
			return c, k.Val, e.Op, true
		}
		return nil, storage.Value{}, 0, false
	}
	if k, ok := e.L.(*Const); ok {
		if c, ok := e.R.(*Col); ok {
			return c, k.Val, e.Op.mirror(), true
		}
	}
	return nil, storage.Value{}, 0, false
}

// cmpShapeError says why a comparison is not column-vs-constant.
func cmpShapeError(e *Cmp) error {
	_, lcol := e.L.(*Col)
	_, rcol := e.R.(*Col)
	_, lbin := e.L.(*Bin)
	_, rbin := e.R.(*Bin)
	why := "does not compare a column with a constant"
	switch {
	case lbin || rbin:
		why = "has an arithmetic operand"
	case lcol && rcol:
		why = "compares two columns"
	}
	return fmt.Errorf("expr: filter %s: %s; only a column compared with a constant is supported", e, why)
}

func compileCmp(e *Cmp, s storage.Schema) (selNode, error) {
	col, c, op, ok := splitColConst(e)
	if !ok {
		return nil, cmpShapeError(e)
	}
	ci, err := columnIndex(e, col, s)
	if err != nil {
		return nil, err
	}
	n := &cmpNode{col: ci, op: op}
	// The kind dispatch mirrors Eval's: int64-vs-int64 compares in integer
	// domain, any numeric mix compares as float64 (Vector.Float coercion),
	// string-vs-string lexicographic. Boolean columns compile to a
	// precomputed truth pair — the comparison result depends only on the
	// column bit, so even the ordered operators (via Eval's b2i path) reduce
	// to a table lookup.
	switch {
	case s[ci].Typ == storage.Int64 && c.Typ == storage.Int64:
		n.kind, n.i64 = cmpI64, c.I
	case s[ci].Typ == storage.Int64 && c.Typ == storage.Float64:
		n.kind, n.f64 = cmpI64F64, c.F
	case s[ci].Typ == storage.Float64 && c.Typ == storage.Int64:
		n.kind, n.f64 = cmpF64, float64(c.I)
	case s[ci].Typ == storage.Float64 && c.Typ == storage.Float64:
		n.kind, n.f64 = cmpF64, c.F
	case s[ci].Typ == storage.String && c.Typ == storage.String:
		n.kind, n.str = cmpStr, c.S
	case s[ci].Typ == storage.Bool && c.Typ == storage.Bool:
		n.kind = cmpBool
		n.rf = cmpBoolResult(false, c.B, op)
		n.rt = cmpBoolResult(true, c.B, op)
	default:
		return nil, fmt.Errorf("expr: filter %s: cannot compare %s column %q with a %s constant", e, s[ci].Typ, col.Name, c.Typ)
	}
	return n, nil
}

func cmpBoolResult(x, c bool, op CmpOp) bool {
	switch op {
	case EQ:
		return x == c
	case NE:
		return x != c
	}
	return cmpOrd(b2i(x), b2i(c), op)
}

func compileIn(e *In, s storage.Schema) (selNode, error) {
	col, ok := e.E.(*Col)
	if !ok {
		return nil, fmt.Errorf("expr: filter %s: IN over an expression; only a column is supported", e)
	}
	ci, err := columnIndex(e, col, s)
	if err != nil {
		return nil, err
	}
	n := &inNode{col: ci, typ: s[ci].Typ}
	// A list with no value of the column's type class (strings against a
	// number, or an empty list) is a typing mistake, not an empty answer.
	matchable := false
	for _, v := range e.Vals {
		matchable = matchable || sameClass(n.typ, v.Typ)
	}
	if !matchable {
		return nil, fmt.Errorf("expr: filter %s: the list holds no %s value for column %q", e, n.typ, col.Name)
	}
	// Value.Equal is strict same-type equality, so values of any other type
	// in the list can never match and are dropped at compile time.
	switch n.typ {
	case storage.Int64:
		for _, v := range e.Vals {
			if v.Typ == storage.Int64 {
				n.i64s = append(n.i64s, v.I)
			}
		}
	case storage.Float64:
		for _, v := range e.Vals {
			if v.Typ == storage.Float64 {
				n.f64s = append(n.f64s, v.F)
			}
		}
	case storage.String:
		for _, v := range e.Vals {
			if v.Typ == storage.String {
				n.strs = append(n.strs, v.S)
			}
		}
	case storage.Bool:
		for _, v := range e.Vals {
			if v.Typ == storage.Bool {
				if v.B {
					n.rt = true
				} else {
					n.rf = true
				}
			}
		}
	}
	return n, nil
}

// ---- leaf kernels ----

type cmpKind uint8

const (
	cmpI64    cmpKind = iota // int64 column vs int64 constant, integer compare
	cmpF64                   // float64 column vs numeric constant, float compare
	cmpI64F64                // int64 column vs float constant, coerced to float
	cmpStr                   // string column vs string constant
	cmpBool                  // bool column: precomputed per-bit truth pair
)

type cmpNode struct {
	col  int
	op   CmpOp
	kind cmpKind
	i64  int64
	f64  float64
	str  string
	// rf/rt: comparison result when the bool column holds false/true.
	rf, rt bool
}

func (n *cmpNode) refine(b *storage.Batch, in, out []int32, _ *Scratch) []int32 {
	v := b.Vecs[n.col]
	switch n.kind {
	case cmpI64:
		return selOrd(v.I64, n.i64, n.op, in, out)
	case cmpF64:
		return selOrd(v.F64, n.f64, n.op, in, out)
	case cmpI64F64:
		return selI64AsF64(v.I64, n.f64, n.op, in, out)
	case cmpStr:
		return selOrd(v.Str, n.str, n.op, in, out)
	default:
		return selBoolPair(v.B, n.rf, n.rt, in, out)
	}
}

// selOrd appends the indices where col[i] op c onto out. The operator switch
// sits outside the row loop, and the dense (in == nil) case streams the raw
// column without index indirection. Go's native comparison operators give the
// IEEE semantics the contract requires (NaN false except !=).
func selOrd[T int64 | float64 | string](col []T, c T, op CmpOp, in, out []int32) []int32 {
	if in == nil {
		switch op {
		case EQ:
			for i, x := range col {
				if x == c {
					out = append(out, int32(i))
				}
			}
		case NE:
			for i, x := range col {
				if x != c {
					out = append(out, int32(i))
				}
			}
		case LT:
			for i, x := range col {
				if x < c {
					out = append(out, int32(i))
				}
			}
		case LE:
			for i, x := range col {
				if x <= c {
					out = append(out, int32(i))
				}
			}
		case GT:
			for i, x := range col {
				if x > c {
					out = append(out, int32(i))
				}
			}
		case GE:
			for i, x := range col {
				if x >= c {
					out = append(out, int32(i))
				}
			}
		}
		return out
	}
	switch op {
	case EQ:
		for _, i := range in {
			if col[i] == c {
				out = append(out, i)
			}
		}
	case NE:
		for _, i := range in {
			if col[i] != c {
				out = append(out, i)
			}
		}
	case LT:
		for _, i := range in {
			if col[i] < c {
				out = append(out, i)
			}
		}
	case LE:
		for _, i := range in {
			if col[i] <= c {
				out = append(out, i)
			}
		}
	case GT:
		for _, i := range in {
			if col[i] > c {
				out = append(out, i)
			}
		}
	case GE:
		for _, i := range in {
			if col[i] >= c {
				out = append(out, i)
			}
		}
	}
	return out
}

// selI64AsF64 is selOrd for the mixed-numeric case: an int64 column compared
// against a float constant goes through float64 coercion per row, exactly as
// Eval's Vector.Float path does.
func selI64AsF64(col []int64, c float64, op CmpOp, in, out []int32) []int32 {
	if in == nil {
		switch op {
		case EQ:
			for i, x := range col {
				if float64(x) == c {
					out = append(out, int32(i))
				}
			}
		case NE:
			for i, x := range col {
				if float64(x) != c {
					out = append(out, int32(i))
				}
			}
		case LT:
			for i, x := range col {
				if float64(x) < c {
					out = append(out, int32(i))
				}
			}
		case LE:
			for i, x := range col {
				if float64(x) <= c {
					out = append(out, int32(i))
				}
			}
		case GT:
			for i, x := range col {
				if float64(x) > c {
					out = append(out, int32(i))
				}
			}
		case GE:
			for i, x := range col {
				if float64(x) >= c {
					out = append(out, int32(i))
				}
			}
		}
		return out
	}
	switch op {
	case EQ:
		for _, i := range in {
			if float64(col[i]) == c {
				out = append(out, i)
			}
		}
	case NE:
		for _, i := range in {
			if float64(col[i]) != c {
				out = append(out, i)
			}
		}
	case LT:
		for _, i := range in {
			if float64(col[i]) < c {
				out = append(out, i)
			}
		}
	case LE:
		for _, i := range in {
			if float64(col[i]) <= c {
				out = append(out, i)
			}
		}
	case GT:
		for _, i := range in {
			if float64(col[i]) > c {
				out = append(out, i)
			}
		}
	case GE:
		for _, i := range in {
			if float64(col[i]) >= c {
				out = append(out, i)
			}
		}
	}
	return out
}

// selBoolPair selects by the precomputed truth pair: rf/rt is the predicate
// result for a false/true column bit.
func selBoolPair(col []bool, rf, rt bool, in, out []int32) []int32 {
	if in == nil {
		for i, x := range col {
			if (x && rt) || (!x && rf) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range in {
		x := col[i]
		if (x && rt) || (!x && rf) {
			out = append(out, i)
		}
	}
	return out
}

type inNode struct {
	col  int
	typ  storage.Type
	i64s []int64
	f64s []float64
	strs []string
	// Bool columns: membership result for a false/true column bit.
	rf, rt bool
}

func (n *inNode) refine(b *storage.Batch, in, out []int32, _ *Scratch) []int32 {
	v := b.Vecs[n.col]
	switch n.typ {
	case storage.Int64:
		return selIn(v.I64, n.i64s, in, out)
	case storage.Float64:
		return selIn(v.F64, n.f64s, in, out)
	case storage.String:
		return selIn(v.Str, n.strs, in, out)
	default:
		return selBoolPair(v.B, n.rf, n.rt, in, out)
	}
}

// selIn appends the indices whose column value equals any list value. Linear
// scan: IN lists are small literal sets, and Go == over the element type is
// exactly Value.Equal's same-type semantics (a NaN column value matches
// nothing, NaN list values match nothing).
func selIn[T comparable](col []T, vals []T, in, out []int32) []int32 {
	if in == nil {
		for i, x := range col {
			for _, c := range vals {
				if x == c {
					out = append(out, int32(i))
					break
				}
			}
		}
		return out
	}
	for _, i := range in {
		x := col[i]
		for _, c := range vals {
			if x == c {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// ---- connectives ----

// andNode refines sequentially: each conjunct only sees the survivors of the
// previous ones (fusion). An empty intermediate selection makes the remaining
// conjuncts free — their loops run over zero candidates.
type andNode struct{ kids []selNode }

func (n *andNode) refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32 {
	cur := in
	var owned []int32
	last := len(n.kids) - 1
	for k := 0; k < last; k++ {
		nxt := n.kids[k].refine(b, cur, sc.get(rowsIn(b, cur)), sc)
		if owned != nil {
			sc.put(owned)
		}
		owned, cur = nxt, nxt
	}
	out = n.kids[last].refine(b, cur, out, sc)
	if owned != nil {
		sc.put(owned)
	}
	return out
}

// orNode evaluates every disjunct against the same input selection and
// union-merges the ascending results (dedup on equal indices).
type orNode struct{ kids []selNode }

func (n *orNode) refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32 {
	hint := rowsIn(b, in)
	acc := n.kids[0].refine(b, in, sc.get(hint), sc)
	for _, k := range n.kids[1:] {
		t := k.refine(b, in, sc.get(hint), sc)
		m := mergeUnion(sc.get(len(acc)+len(t)), acc, t)
		sc.put(acc)
		sc.put(t)
		acc = m
	}
	out = append(out, acc...)
	sc.put(acc)
	return out
}

// mergeUnion appends the ascending union of a and b onto dst.
func mergeUnion(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// notNode complements the child's selection against its own input. This is
// the ordered set complement, NOT a negated comparison: NOT(f < 5) must
// select NaN rows (the child rejected them), which f >= 5 would not.
type notNode struct{ kid selNode }

func (n *notNode) refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32 {
	t := n.kid.refine(b, in, sc.get(rowsIn(b, in)), sc)
	j := 0
	if in == nil {
		rows := b.Len()
		for i := 0; i < rows; i++ {
			if j < len(t) && t[j] == int32(i) {
				j++
				continue
			}
			out = append(out, int32(i))
		}
	} else {
		for _, i := range in {
			if j < len(t) && t[j] == i {
				j++
				continue
			}
			out = append(out, i)
		}
	}
	sc.put(t)
	return out
}
