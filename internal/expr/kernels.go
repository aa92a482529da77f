package expr

import (
	"fmt"
	"math"
	"slices"

	"github.com/tasterdb/taster/internal/storage"
)

// This file compiles a Pred into selection-vector kernels: typed tight loops
// that refine a []int32 of candidate physical row indices. It is the
// engine's only filter evaluator — exec's filter step runs nothing else, and
// planner.Query.Validate admits a query only if its filters compile here, so
// "the front door accepted it" and "exec can run it" are one predicate. The
// kernels hoist the type and operator dispatch out of the row loop, allocate
// nothing per batch (intermediate selections come from a reusable Scratch),
// and fuse the conjunction so later terms only look at rows that survived
// earlier ones.
//
// Branch-free contract: no leaf kernel branches on a row's outcome. Each one
// grows its output once by the candidate count, stores every candidate's
// index at the write cursor unconditionally, and advances the cursor by the
// comparison's result — `out[k] = i; if x op c { k++ }`, which the compiler
// lowers to a conditional move — so an unsorted column whose predicate
// selects half its rows costs what a sorted one does. The operator switch
// sits outside the row loop, and an IN list is folded without a short
// circuit.
//
// Range leaves: a lower bound (>, >=) and an upper bound (<, <=) on the same
// Int64 column, both with Int64 literals — every BETWEEN is such a pair —
// run as one leaf, not two passes. Strict bounds become inclusive ones (> c
// is >= c+1, < c is <= c−1; > MaxInt64 and < MinInt64 select nothing, as
// does a range whose low end passes its high end), and the two comparisons
// become one unsigned one: lo <= x <= hi exactly when uint64(x)−uint64(lo)
// <= uint64(hi−lo), so the leaf keeps the branch-free form,
// `out[k] = i; if uint64(x)-uint64(lo) <= span { k++ }`. Only the program
// fuses: the Pred keeps both terms, and so does everything that reads it.
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
// What compiles: a term whose column is in the schema and whose literal is
// of the column's type class (numeric with numeric, string with string), or
// an IN list holding at least one such literal. A boolean column, a literal
// of another class or an unknown column is a compile error naming the term
// and the reason.
//
// Semantics contract: a compiled Filter selects exactly the rows EvalBool
// selects, bit-for-bit, including the IEEE edge cases — NaN compares false
// under every operator except <>, int64-vs-int64 comparisons stay in integer
// domain (never coerced through float64, which would fold values above
// 2^53), and col IN (v...) holds iff col = v holds for some v. EvalBool runs
// in no query: it is the oracle this file's table tests and fuzzers (and
// zone_test.go) hold the kernels to.
//
// Selection-vector convention, shared with the exec package: a selection is
// an ascending list of physical row indices; nil means "every row of the
// batch" (the dense case, which gets its own loop bodies so the first term
// streams the raw column without indirection). Every leaf maps an ascending
// input selection to an ascending subset, and the conjunction refines
// sequentially, so the invariant holds by construction.

// Filter is a compiled predicate program over a fixed input schema. It is
// immutable: per-run state (buffers, truth tables) lives in a Scratch.
type Filter struct{ root selNode }

// CompileFilter compiles a non-empty predicate into selection kernels over
// schema s: one leaf per term, but one range leaf per pair of Int64 bounds
// on a column (fuseRanges), and a fused conjunction over them when there
// are several. The error names the first term outside the compilable subset
// and says why (see the file comment for what compiles).
func CompileFilter(p Pred, s storage.Schema) (*Filter, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("expr: empty filter")
	}
	var slots int
	kids := make([]selNode, len(p))
	for i, t := range p {
		n, err := compileTerm(t, s, &slots)
		if err != nil {
			return nil, err
		}
		kids[i] = n
	}
	kids = fuseRanges(kids)
	if len(kids) == 1 {
		return &Filter{root: kids[0]}, nil
	}
	return &Filter{root: &andNode{kids: kids}}, nil
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
	t.of[c] = 0
	if ok {
		t.of[c] = 1
	}
	t.undecided--
}

// rowsIn is the candidate count of a (batch, selection) pair.
func rowsIn(b *storage.Batch, in []int32) int {
	if in == nil {
		return b.Len()
	}
	return len(in)
}

// selNode is one node of a compiled program — a leaf or the conjunction.
// refine appends the surviving subset of in (ascending) onto out.
type selNode interface {
	refine(b *storage.Batch, in, out []int32, sc *Scratch) []int32
}

// ---- compilation ----

// compileTerm compiles one term over s; slots counts the string leaves
// numbered so far, each of which gets the next truth-table slot.
func compileTerm(t Term, s storage.Schema, slots *int) (selNode, error) {
	if t.Op > IN {
		return nil, fmt.Errorf("expr: filter on %q: unknown operator %d", t.Col, t.Op)
	}
	ci := s.Index(t.Col)
	if ci < 0 {
		return nil, fmt.Errorf("expr: filter %s: unknown column %q in schema %v", t, t.Col, s.Names())
	}
	if t.Op == IN {
		return compileIn(t, ci, s[ci].Typ, slots)
	}
	return compileCmp(t, ci, s[ci].Typ, slots)
}

// sameClass reports whether a literal of type b can be compared with a
// column of type a: numeric with numeric, string with string. A boolean
// column compares with nothing — no SQL literal is a boolean.
func sameClass(a, b storage.Type) bool {
	return (a.Numeric() && b.Numeric()) || (a == storage.String && b == storage.String)
}

// newStrNode numbers a string leaf over column ci.
func newStrNode(ci int, slots *int) *strNode {
	n := &strNode{col: ci, slot: *slots}
	*slots++
	return n
}

func compileCmp(t Term, ci int, typ storage.Type, slots *int) (selNode, error) {
	c := t.Val
	if !sameClass(typ, c.Typ) {
		return nil, fmt.Errorf("expr: filter %s: cannot compare %s column %q with a %s constant", t, typ, t.Col, c.Typ)
	}
	n := &cmpNode{col: ci, op: t.Op}
	// The kind dispatch mirrors the oracle's: int64-vs-int64 compares in
	// integer domain, any numeric mix compares as float64, string-vs-string
	// lexicographic.
	switch {
	case typ == storage.Int64 && c.Typ == storage.Int64:
		n.kind, n.i64 = cmpI64, c.I
	case typ == storage.Int64:
		n.kind, n.f64 = cmpI64F64, c.F
	case typ == storage.Float64:
		n.kind, n.f64 = cmpF64, c.AsFloat()
	default:
		sn := newStrNode(ci, slots)
		sn.op, sn.c = t.Op, c.S
		return sn, nil
	}
	return n, nil
}

// compileIn compiles col IN (v...) as the disjunction of col = v: every
// literal is compared as a comparison with it would be, so IN (2.0) and = 2.0
// select the same rows of an int64 column.
func compileIn(t Term, ci int, typ storage.Type, slots *int) (selNode, error) {
	// A list with no value of the column's type class (strings against a
	// number, or an empty list) is a typing mistake, not an empty answer.
	// Values of another class can never match and are dropped.
	var vals []storage.Value
	for _, v := range t.List {
		if sameClass(typ, v.Typ) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("expr: filter %s: the list holds no %s value for column %q", t, typ, t.Col)
	}
	n := &inNode{col: ci}
	switch typ {
	case storage.Int64:
		n.kind = inI64
		for _, v := range vals {
			if v.Typ == storage.Int64 {
				n.i64s = append(n.i64s, v.I)
			} else {
				n.f64s = append(n.f64s, v.F)
			}
		}
		if n.f64s != nil {
			n.kind = inI64Mixed
		}
	case storage.Float64:
		n.kind = inF64
		for _, v := range vals {
			n.f64s = append(n.f64s, v.AsFloat())
		}
	default:
		sn := newStrNode(ci, slots)
		for _, v := range vals {
			sn.list = append(sn.list, v.S)
		}
		return sn, nil
	}
	return n, nil
}

// ---- leaf kernels ----

type cmpKind uint8

const (
	cmpI64    cmpKind = iota // int64 column vs int64 constant, integer compare
	cmpF64                   // float64 column vs numeric constant, float compare
	cmpI64F64                // int64 column vs float constant, coerced to float
)

// cmpNode is a numeric comparison with a constant.
type cmpNode struct {
	col  int
	op   CmpOp
	kind cmpKind
	i64  int64
	f64  float64
}

func (n *cmpNode) refine(b *storage.Batch, in, out []int32, _ *Scratch) []int32 {
	v := b.Vecs[n.col]
	switch n.kind {
	case cmpI64:
		return selOrd(v.I64, n.i64, n.op, in, out)
	case cmpF64:
		return selOrd(v.F64, n.f64, n.op, in, out)
	default:
		return selI64AsF64(v.I64, n.f64, n.op, in, out)
	}
}

// grow makes room in out for every candidate — the rows of in, or all n
// rows when in is nil — and returns out lengthened over that room, with its
// old length: the cursor k a kernel stores candidates from (out[k] = i).
// The kernel's survivors are out[:k] for its final cursor. Storing through
// out itself, not through a window onto its tail, leaves the loop one slice
// to hold: with a window, out's header stays live beside it, and the
// indirect loops ran short of registers and reloaded it from the stack
// every row.
func grow(out []int32, n int, in []int32) ([]int32, int) {
	if in != nil {
		n = len(in)
	}
	k := len(out)
	out = slices.Grow(out, n)
	return out[:k+n], k
}

// selOrd appends the indices where col[i] op c onto out, branch-free (see
// the file comment). The operator switch sits outside the row loop, and the
// dense (in == nil) case streams the raw column without index indirection.
// Go's native comparison operators give the IEEE semantics the contract
// requires (NaN false except !=).
func selOrd[T int64 | float64 | string](col []T, c T, op CmpOp, in, out []int32) []int32 {
	out, k := grow(out, len(col), in)
	if in == nil {
		switch op {
		case EQ:
			for i, x := range col {
				out[k] = int32(i)
				if x == c {
					k++
				}
			}
		case NE:
			for i, x := range col {
				out[k] = int32(i)
				if x != c {
					k++
				}
			}
		case LT:
			for i, x := range col {
				out[k] = int32(i)
				if x < c {
					k++
				}
			}
		case LE:
			for i, x := range col {
				out[k] = int32(i)
				if x <= c {
					k++
				}
			}
		case GT:
			for i, x := range col {
				out[k] = int32(i)
				if x > c {
					k++
				}
			}
		case GE:
			for i, x := range col {
				out[k] = int32(i)
				if x >= c {
					k++
				}
			}
		}
		return out[:k]
	}
	switch op {
	case EQ:
		for _, i := range in {
			out[k] = i
			if col[i] == c {
				k++
			}
		}
	case NE:
		for _, i := range in {
			out[k] = i
			if col[i] != c {
				k++
			}
		}
	case LT:
		for _, i := range in {
			out[k] = i
			if col[i] < c {
				k++
			}
		}
	case LE:
		for _, i := range in {
			out[k] = i
			if col[i] <= c {
				k++
			}
		}
	case GT:
		for _, i := range in {
			out[k] = i
			if col[i] > c {
				k++
			}
		}
	case GE:
		for _, i := range in {
			out[k] = i
			if col[i] >= c {
				k++
			}
		}
	}
	return out[:k]
}

// selI64AsF64 is selOrd for the mixed-numeric case: an int64 column compared
// against a float constant goes through float64 coercion per row, exactly as
// the oracle compares it.
func selI64AsF64(col []int64, c float64, op CmpOp, in, out []int32) []int32 {
	out, k := grow(out, len(col), in)
	if in == nil {
		switch op {
		case EQ:
			for i, x := range col {
				out[k] = int32(i)
				if float64(x) == c {
					k++
				}
			}
		case NE:
			for i, x := range col {
				out[k] = int32(i)
				if float64(x) != c {
					k++
				}
			}
		case LT:
			for i, x := range col {
				out[k] = int32(i)
				if float64(x) < c {
					k++
				}
			}
		case LE:
			for i, x := range col {
				out[k] = int32(i)
				if float64(x) <= c {
					k++
				}
			}
		case GT:
			for i, x := range col {
				out[k] = int32(i)
				if float64(x) > c {
					k++
				}
			}
		case GE:
			for i, x := range col {
				out[k] = int32(i)
				if float64(x) >= c {
					k++
				}
			}
		}
		return out[:k]
	}
	switch op {
	case EQ:
		for _, i := range in {
			out[k] = i
			if float64(col[i]) == c {
				k++
			}
		}
	case NE:
		for _, i := range in {
			out[k] = i
			if float64(col[i]) != c {
				k++
			}
		}
	case LT:
		for _, i := range in {
			out[k] = i
			if float64(col[i]) < c {
				k++
			}
		}
	case LE:
		for _, i := range in {
			out[k] = i
			if float64(col[i]) <= c {
				k++
			}
		}
	case GT:
		for _, i := range in {
			out[k] = i
			if float64(col[i]) > c {
				k++
			}
		}
	case GE:
		for _, i := range in {
			out[k] = i
			if float64(col[i]) >= c {
				k++
			}
		}
	}
	return out[:k]
}

// fuseRanges pairs each Int64 lower bound (>, >= an Int64 literal) with the
// first unpaired Int64 upper bound (<, <=) on the same column after it, or
// each such upper bound with the first lower bound after it, into one range
// leaf at the earlier term's place. Every other leaf — a third bound on a
// column, a bound with a float literal — stays as it was compiled.
func fuseRanges(kids []selNode) []selNode {
	out := kids[:0]
	paired := make([]bool, len(kids))
	for i, n := range kids {
		if paired[i] {
			continue
		}
		if a, ok := intBound(n); ok {
			for j := i + 1; j < len(kids); j++ {
				if b, ok := intBound(kids[j]); ok && !paired[j] && b.col == a.col && lowerBound(b.op) != lowerBound(a.op) {
					paired[j], n = true, newRangeNode(a, b)
					break
				}
			}
		}
		out = append(out, n)
	}
	return out
}

// intBound reports whether n is an Int64 column's bound by an Int64 literal.
func intBound(n selNode) (*cmpNode, bool) {
	c, ok := n.(*cmpNode)
	return c, ok && c.kind == cmpI64 && c.op >= LT && c.op <= GE
}

func lowerBound(op CmpOp) bool { return op == GT || op == GE }

// rangeNode selects the rows of an Int64 column within [lo, hi]; none: no
// row at all.
type rangeNode struct {
	col    int
	lo, hi int64
	none   bool
}

// newRangeNode is the range leaf of a lower and an upper bound on one column,
// both made inclusive.
func newRangeNode(a, b *cmpNode) *rangeNode {
	r := &rangeNode{col: a.col}
	for _, c := range []*cmpNode{a, b} {
		switch c.op {
		case GE:
			r.lo = c.i64
		case GT:
			r.lo, r.none = c.i64+1, r.none || c.i64 == math.MaxInt64
		case LE:
			r.hi = c.i64
		case LT:
			r.hi, r.none = c.i64-1, r.none || c.i64 == math.MinInt64
		}
	}
	r.none = r.none || r.lo > r.hi
	return r
}

func (n *rangeNode) refine(b *storage.Batch, in, out []int32, _ *Scratch) []int32 {
	if n.none {
		return out
	}
	return selRange(b.Vecs[n.col].I64, n.lo, uint64(n.hi)-uint64(n.lo), in, out)
}

// selRange appends the indices where lo <= col[i] <= lo+span, branch-free
// (see the file comment): one unsigned comparison per row, the dense case
// streaming the raw column as selOrd's does.
func selRange(col []int64, lo int64, span uint64, in, out []int32) []int32 {
	out, k := grow(out, len(col), in)
	if in == nil {
		for i, x := range col {
			out[k] = int32(i)
			if uint64(x)-uint64(lo) <= span {
				k++
			}
		}
		return out[:k]
	}
	for _, i := range in {
		out[k] = i
		if uint64(col[i])-uint64(lo) <= span {
			k++
		}
	}
	return out[:k]
}

type inKind uint8

const (
	inI64      inKind = iota // int64 column, int64 literals
	inF64                    // float64 column, literals as float64
	inI64Mixed               // int64 column, some float literals
)

// inNode is a numeric column IN a literal list.
type inNode struct {
	col  int
	kind inKind
	i64s []int64
	f64s []float64
}

func (n *inNode) refine(b *storage.Batch, in, out []int32, _ *Scratch) []int32 {
	v := b.Vecs[n.col]
	switch n.kind {
	case inI64:
		return selIn(v.I64, n.i64s, in, out)
	case inF64:
		return selIn(v.F64, n.f64s, in, out)
	default:
		return selI64InMixed(v.I64, n, in, out)
	}
}

// selIn appends the indices whose column value equals any list value,
// branch-free: every list value is compared, and a hit sets a flag instead of
// leaving the loop. Linear: IN lists are small literal sets, and Go == over
// the element type is the comparison's equality (a NaN column value matches
// nothing, NaN list values match nothing).
func selIn[T comparable](col []T, vals []T, in, out []int32) []int32 {
	out, k := grow(out, len(col), in)
	if in != nil {
		return out[:k+selInSel(out[k:], col, vals, in)]
	}
	return out[:k+selInDense(out[k:], col, vals)]
}

// selInSel is selIn's row loop under the selection in: it stores every
// candidate at out[k], advancing k from 0 on a hit, and returns how many
// hit. It stays a call of its own, so its loops have the registers to
// themselves: inlined into selIn, the list loop reloaded its cursor and list
// from the stack at every list value.
//
//go:noinline
func selInSel[T comparable](out []int32, col []T, vals []T, in []int32) int {
	k := 0
	out = out[:len(in)] // one length bounds the candidates and the cursor
	for _, i := range in {
		x, hit := col[i], 0
		out[k] = i // stored first, so i is not live across the list loop
		for _, c := range vals {
			if x == c {
				hit = 1
			}
		}
		k += hit
	}
	return k
}

// selInDense is selIn's row loop over a whole column, a call of its own as
// selInSel is.
//
//go:noinline
func selInDense[T comparable](out []int32, col []T, vals []T) int {
	k := 0
	out = out[:len(col)]
	for i, x := range col {
		hit := 0
		for _, c := range vals {
			if x == c {
				hit = 1
			}
		}
		out[k] = int32(i)
		k += hit
	}
	return k
}

// selI64InMixed is selIn for an int64 column whose list holds float
// literals too: a row matches an int literal in integer domain and a float
// literal through float64 coercion, as selOrd and selI64AsF64 compare it.
// n holds the two lists: four slices would not all fit the row loops'
// argument registers.
func selI64InMixed(col []int64, n *inNode, in, out []int32) []int32 {
	out, k := grow(out, len(col), in)
	if in != nil {
		return out[:k+selI64InMixedSel(out[k:], col, n, in)]
	}
	return out[:k+selI64InMixedDense(out[k:], col, n)]
}

// selI64InMixedSel is selI64InMixed's row loop under a selection, a call of
// its own as selInSel is. Two lists leave it fewer registers than selInSel
// has, so it copies the candidates into out and compacts them there, and
// reads each list off n as its loop starts: the loops then hold no slice
// of in and none of the other list.
//
//go:noinline
func selI64InMixedSel(out []int32, col []int64, n *inNode, in []int32) int {
	k := 0
	out = out[:len(in)]
	copy(out, in)
	for _, i := range out { // out[k] trails the candidate read, k <= its position
		x, hit := col[i], 0
		xf := float64(x)
		out[k] = i // stored first, as in selInSel
		for _, c := range n.i64s {
			if x == c {
				hit = 1
			}
		}
		for _, c := range n.f64s {
			if xf == c {
				hit = 1
			}
		}
		k += hit
	}
	return k
}

// selI64InMixedDense is selI64InMixed's row loop over a whole column.
//
//go:noinline
func selI64InMixedDense(out []int32, col []int64, n *inNode) int {
	ints, floats, k := n.i64s, n.f64s, 0
	out = out[:len(col)]
	for i, x := range col {
		hit, xf := 0, float64(x)
		for _, c := range ints {
			if x == c {
				hit = 1
			}
		}
		for _, c := range floats {
			if xf == c {
				hit = 1
			}
		}
		out[k] = int32(i)
		k += hit
	}
	return k
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
	switch n.op {
	case EQ:
		return s == n.c
	case NE:
		return s != n.c
	case LT:
		return s < n.c
	case LE:
		return s <= n.c
	case GT:
		return s > n.c
	}
	return s >= n.c
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
	out, k := grow(out, len(codes), in)
	if in == nil {
		for i, c := range codes {
			out[k] = int32(i)
			k += int(truth[c])
		}
		return out[:k]
	}
	for _, i := range in {
		out[k] = i
		k += int(truth[codes[i]])
	}
	return out[:k]
}

// ---- the conjunction ----

// andNode refines sequentially: each term only sees the survivors of the
// previous ones (fusion). An empty intermediate selection makes the remaining
// terms free — their loops run over zero candidates.
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
