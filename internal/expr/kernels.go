package expr

import (
	"fmt"
	"slices"

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
// Branch-free contract: no leaf kernel branches on a row's outcome. Each one
// grows its output once by the candidate count, stores every candidate's
// index at the write cursor unconditionally, and advances the cursor by the
// comparison's result — `dst[k] = i; if x op c { k++ }`, which the compiler
// lowers to a conditional move — so an unsorted column whose predicate
// selects half its rows costs what a sorted one does. The operator switch
// sits outside the row loop, and an IN list is folded without a short
// circuit. The connectives (And, Or, Not) are not leaves and keep their
// merges.
//
// Coded string leaves: a string comparison or IN over a dictionary-coded
// vector (storage.Vector.Code / Dict) decides the predicate once per code
// and then selects by one table load per row. The truth table lives in the
// Scratch — one per string leaf per dictionary per operator, tied to the
// *Dict pointer and started over when a batch arrives under another one —
// and is filled lazily, the first time a candidate shows a code, by reading
// that row's string. A code's verdict is the same Go comparison on the same
// string and a dictionary's values are distinct, so the coded and uncoded
// paths select the same rows. Uncoded vectors (a column past MaxDictSize, a
// gather that mixed dictionaries) compare every row.
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

// Filter is a compiled predicate program over a fixed input schema. It is
// immutable: per-run state (buffers, truth tables) lives in a Scratch.
type Filter struct{ root selNode }

// CompileFilter compiles a boolean expression into selection kernels over
// schema s. The error names the first sub-expression outside the compilable
// subset and says why (see the file comment for what compiles).
func CompileFilter(e Expr, s storage.Schema) (*Filter, error) {
	var slots int
	n, err := compileNode(e, s, &slots)
	if err != nil {
		return nil, err
	}
	return &Filter{root: n}, nil
}

// Refine runs the program over one batch: in lists the candidate physical
// rows (ascending; nil = all rows), survivors are appended to out and
// returned. sc lends intermediate buffers and the string leaves' truth
// tables; it may be shared across calls but not across goroutines.
func (f *Filter) Refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32 {
	return f.root.refine(b, in, out, sc)
}

// Scratch is the per-operator working memory of Refine: a free list of
// intermediate selection buffers, and one truth table per coded string leaf.
// One Scratch per operator instance: buffers grow to batch size once and are
// reused for every subsequent batch.
type Scratch struct {
	free   [][]int32
	truths []codeTruth // by string leaf slot
}

func (s *Scratch) get(n int) []int32 {
	if k := len(s.free) - 1; k >= 0 {
		b := s.free[k]
		s.free = s.free[:k]
		return b[:0]
	}
	return make([]int32, 0, n)
}

func (s *Scratch) put(b []int32) { s.free = append(s.free, b) }

// codeTruth is one string leaf's verdict on each code of one dictionary: 1
// selects, 0 rejects, undecided until a candidate row first shows the code.
type codeTruth struct {
	leaf      *strNode
	dict      *storage.Dict
	of        []uint8
	undecided int // codes still undecided
}

const undecided = 2

// truth returns leaf n's truth table over v's dictionary with every code a
// candidate of in shows decided. A table left by another leaf (a Scratch
// shared across filters) or another dictionary starts over. While any code
// is undecided, each call walks the candidates' codes once more; a
// dictionary of a few values is complete after the first batch.
func (s *Scratch) truth(n *strNode, v *storage.Vector, in []int32) []uint8 {
	if n.slot >= len(s.truths) {
		s.truths = append(s.truths, make([]codeTruth, n.slot+1-len(s.truths))...)
	}
	t := &s.truths[n.slot]
	if t.leaf != n || t.dict != v.Dict {
		size := v.Dict.Len()
		t.leaf, t.dict, t.undecided = n, v.Dict, size
		t.of = slices.Grow(t.of[:0], size)[:size]
		for c := range t.of {
			t.of[c] = undecided
		}
	}
	if t.undecided > 0 {
		t.decide(n, v, in)
	}
	return t.of
}

// decide settles every code the candidates show for the first time by
// reading that row's string, as exec's strCodes.words does.
func (t *codeTruth) decide(n *strNode, v *storage.Vector, in []int32) {
	if in == nil {
		for i, c := range v.Code {
			if t.of[c] == undecided {
				t.set(c, n.match(v.Str[i]))
			}
		}
		return
	}
	for _, i := range in {
		if c := v.Code[i]; t.of[c] == undecided {
			t.set(c, n.match(v.Str[i]))
		}
	}
}

func (t *codeTruth) set(c uint32, ok bool) {
	t.of[c] = uint8(b2i(ok))
	t.undecided--
}

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

// compileNode compiles e over s; slots counts the string leaves numbered so
// far, each of which gets the next truth-table slot.
func compileNode(e Expr, s storage.Schema, slots *int) (selNode, error) {
	switch t := e.(type) {
	case *Logic:
		l, err := compileNode(t.L, s, slots)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(t.R, s, slots)
		if err != nil {
			return nil, err
		}
		if t.Op == And {
			return &andNode{kids: flattenAnd(l, r)}, nil
		}
		return &orNode{kids: flattenOr(l, r)}, nil
	case *Not:
		k, err := compileNode(t.E, s, slots)
		if err != nil {
			return nil, err
		}
		return &notNode{kid: k}, nil
	case *Cmp:
		return compileCmp(t, s, slots)
	case *In:
		return compileIn(t, s, slots)
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

// newStrNode numbers a string leaf over column ci.
func newStrNode(ci int, slots *int) *strNode {
	n := &strNode{col: ci, slot: *slots}
	*slots++
	return n
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

func compileCmp(e *Cmp, s storage.Schema, slots *int) (selNode, error) {
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
		sn := newStrNode(ci, slots)
		sn.op, sn.c = op, c.S
		return sn, nil
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

func compileIn(e *In, s storage.Schema, slots *int) (selNode, error) {
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
		sn := newStrNode(ci, slots)
		for _, v := range e.Vals {
			if v.Typ == storage.String {
				sn.list = append(sn.list, v.S)
			}
		}
		return sn, nil
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
	cmpBool                  // bool column: precomputed per-bit truth pair
)

// cmpNode is a numeric or boolean comparison with a constant.
type cmpNode struct {
	col  int
	op   CmpOp
	kind cmpKind
	i64  int64
	f64  float64
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
	default:
		return selBoolPair(v.B, n.rf, n.rt, in, out)
	}
}

// grow makes room in out for every candidate — the rows of in, or all n
// rows when in is nil — and returns out with the window past its end that a
// kernel stores candidates into. The kernel's survivors are out[:len(out)+k]
// for its final cursor k.
func grow(out []int32, n int, in []int32) ([]int32, []int32) {
	if in != nil {
		n = len(in)
	}
	out = slices.Grow(out, n)
	return out, out[len(out) : len(out)+n]
}

// selOrd appends the indices where col[i] op c onto out, branch-free (see
// the file comment). The operator switch sits outside the row loop, and the
// dense (in == nil) case streams the raw column without index indirection.
// Go's native comparison operators give the IEEE semantics the contract
// requires (NaN false except !=).
func selOrd[T int64 | float64 | string](col []T, c T, op CmpOp, in, out []int32) []int32 {
	out, dst := grow(out, len(col), in)
	k := 0
	if in == nil {
		switch op {
		case EQ:
			for i, x := range col {
				dst[k] = int32(i)
				if x == c {
					k++
				}
			}
		case NE:
			for i, x := range col {
				dst[k] = int32(i)
				if x != c {
					k++
				}
			}
		case LT:
			for i, x := range col {
				dst[k] = int32(i)
				if x < c {
					k++
				}
			}
		case LE:
			for i, x := range col {
				dst[k] = int32(i)
				if x <= c {
					k++
				}
			}
		case GT:
			for i, x := range col {
				dst[k] = int32(i)
				if x > c {
					k++
				}
			}
		case GE:
			for i, x := range col {
				dst[k] = int32(i)
				if x >= c {
					k++
				}
			}
		}
		return out[:len(out)+k]
	}
	switch op {
	case EQ:
		for _, i := range in {
			dst[k] = i
			if col[i] == c {
				k++
			}
		}
	case NE:
		for _, i := range in {
			dst[k] = i
			if col[i] != c {
				k++
			}
		}
	case LT:
		for _, i := range in {
			dst[k] = i
			if col[i] < c {
				k++
			}
		}
	case LE:
		for _, i := range in {
			dst[k] = i
			if col[i] <= c {
				k++
			}
		}
	case GT:
		for _, i := range in {
			dst[k] = i
			if col[i] > c {
				k++
			}
		}
	case GE:
		for _, i := range in {
			dst[k] = i
			if col[i] >= c {
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selI64AsF64 is selOrd for the mixed-numeric case: an int64 column compared
// against a float constant goes through float64 coercion per row, exactly as
// Eval's Vector.Float path does.
func selI64AsF64(col []int64, c float64, op CmpOp, in, out []int32) []int32 {
	out, dst := grow(out, len(col), in)
	k := 0
	if in == nil {
		switch op {
		case EQ:
			for i, x := range col {
				dst[k] = int32(i)
				if float64(x) == c {
					k++
				}
			}
		case NE:
			for i, x := range col {
				dst[k] = int32(i)
				if float64(x) != c {
					k++
				}
			}
		case LT:
			for i, x := range col {
				dst[k] = int32(i)
				if float64(x) < c {
					k++
				}
			}
		case LE:
			for i, x := range col {
				dst[k] = int32(i)
				if float64(x) <= c {
					k++
				}
			}
		case GT:
			for i, x := range col {
				dst[k] = int32(i)
				if float64(x) > c {
					k++
				}
			}
		case GE:
			for i, x := range col {
				dst[k] = int32(i)
				if float64(x) >= c {
					k++
				}
			}
		}
		return out[:len(out)+k]
	}
	switch op {
	case EQ:
		for _, i := range in {
			dst[k] = i
			if float64(col[i]) == c {
				k++
			}
		}
	case NE:
		for _, i := range in {
			dst[k] = i
			if float64(col[i]) != c {
				k++
			}
		}
	case LT:
		for _, i := range in {
			dst[k] = i
			if float64(col[i]) < c {
				k++
			}
		}
	case LE:
		for _, i := range in {
			dst[k] = i
			if float64(col[i]) <= c {
				k++
			}
		}
	case GT:
		for _, i := range in {
			dst[k] = i
			if float64(col[i]) > c {
				k++
			}
		}
	case GE:
		for _, i := range in {
			dst[k] = i
			if float64(col[i]) >= c {
				k++
			}
		}
	}
	return out[:len(out)+k]
}

// selBoolPair selects by the precomputed truth pair: rf/rt is the predicate
// result for a false/true column bit. A pair that differs is an equality
// with the bit it accepts; one that agrees keeps every candidate or none.
func selBoolPair(col []bool, rf, rt bool, in, out []int32) []int32 {
	switch {
	case rf != rt:
		return selIn(col, []bool{rt}, in, out)
	case !rf:
		return out
	case in != nil:
		return append(out, in...)
	}
	out, dst := grow(out, len(col), nil)
	for i := range dst {
		dst[i] = int32(i)
	}
	return out[:len(out)+len(dst)]
}

// inNode is a numeric or boolean column IN a literal list.
type inNode struct {
	col  int
	typ  storage.Type
	i64s []int64
	f64s []float64
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
	default:
		return selBoolPair(v.B, n.rf, n.rt, in, out)
	}
}

// selIn appends the indices whose column value equals any list value,
// branch-free: every list value is compared, and a hit sets a flag instead of
// leaving the loop. Linear: IN lists are small literal sets, and Go == over
// the element type is exactly Value.Equal's same-type semantics (a NaN
// column value matches nothing, NaN list values match nothing).
func selIn[T comparable](col []T, vals []T, in, out []int32) []int32 {
	out, dst := grow(out, len(col), in)
	k := 0
	if in == nil {
		for i, x := range col {
			hit := 0
			for _, c := range vals {
				if x == c {
					hit = 1
				}
			}
			dst[k] = int32(i)
			k += hit
		}
		return out[:len(out)+k]
	}
	for _, i := range in {
		x, hit := col[i], 0
		for _, c := range vals {
			if x == c {
				hit = 1
			}
		}
		dst[k] = i
		k += hit
	}
	return out[:len(out)+k]
}

// strNode is a string leaf: a comparison with a constant, or IN a list.
type strNode struct {
	col  int
	slot int      // its truth table in a Scratch
	op   CmpOp    // the comparison's operator
	c    string   // the comparison's constant
	list []string // the IN list; nil for a comparison
}

// match is the leaf's predicate on one value.
func (n *strNode) match(s string) bool {
	if n.list != nil {
		return slices.Contains(n.list, s)
	}
	return cmpOrd(s, n.c, n.op)
}

func (n *strNode) refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32 {
	v := b.Vecs[n.col]
	switch {
	case v.Dict != nil:
		return selCodes(v.Code, sc.truth(n, v, in), in, out)
	case n.list != nil:
		return selIn(v.Str, n.list, in, out)
	}
	return selOrd(v.Str, n.c, n.op, in, out)
}

// selCodes appends the candidates whose code the truth table selects: one
// table load per row, whatever the predicate. Every candidate's code must be
// decided (Scratch.truth).
func selCodes(codes []uint32, truth []uint8, in, out []int32) []int32 {
	out, dst := grow(out, len(codes), in)
	k := 0
	if in == nil {
		for i, c := range codes {
			dst[k] = int32(i)
			k += int(truth[c])
		}
		return out[:len(out)+k]
	}
	for _, i := range in {
		dst[k] = i
		k += int(truth[codes[i]])
	}
	return out[:len(out)+k]
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
