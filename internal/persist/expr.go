package persist

import (
	"fmt"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
)

// Binary codec for filter predicates. Synopsis descriptors carry their
// subplan's filter (an expr.Pred — the subsumption matcher runs implication
// checks on it), so recovering a warehouse from disk must recover the terms
// too: the canonical string form is display-oriented and has no parser.
//
// The format is a tree of one-byte node tags, which a Pred fills in one
// fixed shape: a left-deep chain of AND nodes over its terms, in order —
// t1, AND(t1, t2), AND(AND(t1, t2), t3) — where a comparison term is
// Cmp(Col, Const) and an IN term is In(Col, values). Tags:
//
//	0 nil, 1 Col, 2 Const, 3 retired (arithmetic), 4 Cmp, 5 Logic,
//	6 retired (NOT), 7 In
//
// The decoder flattens any AND nesting into terms. It refuses as corrupt
// tags 3 and 6, a Logic node other than AND, and an operand other than the
// column first and the literal second — shapes an older writer's expression
// tree allowed and no query could build.

const (
	exprNil   byte = 0
	exprCol   byte = 1
	exprConst byte = 2
	exprBin   byte = 3
	exprCmp   byte = 4
	exprLogic byte = 5
	exprNot   byte = 6
	exprIn    byte = 7
)

// logicAnd is the Logic node's AND operator byte.
const logicAnd byte = 0

// maxExprDepth bounds decoder recursion so corrupt input cannot overflow
// the stack; real predicates are a handful of levels deep.
const maxExprDepth = 256

// EncodeExpr appends p's binary encoding to dst (nil encodes as one tag
// byte, so "no filter" round-trips).
func EncodeExpr(dst []byte, p expr.Pred) ([]byte, error) {
	if len(p) == 0 {
		return append(dst, exprNil), nil
	}
	for range p[1:] {
		dst = append(dst, exprLogic, logicAnd)
	}
	for _, t := range p {
		switch {
		case t.Op == expr.IN:
			dst = appendCol(append(dst, exprIn), t.Col)
			dst = storage.AppendU32(dst, uint32(len(t.List)))
			for _, v := range t.List {
				dst = appendValue(dst, v)
			}
		case t.Op <= expr.GE:
			dst = appendCol(append(dst, exprCmp, byte(t.Op)), t.Col)
			dst = appendValue(append(dst, exprConst), t.Val)
		default:
			return dst, fmt.Errorf("persist: cannot encode operator %d of a filter on %q", t.Op, t.Col)
		}
	}
	return dst, nil
}

func appendCol(dst []byte, name string) []byte {
	return storage.AppendStr(append(dst, exprCol), name)
}

// DecodeExpr reverses EncodeExpr over a whole payload.
func DecodeExpr(b []byte) (expr.Pred, error) {
	if len(b) == 1 && b[0] == exprNil {
		return nil, nil
	}
	r := storage.NewReader(b)
	var p expr.Pred
	if err := decodeTerms(r, 0, &p); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after expression", r.Remaining())
	}
	return p, nil
}

// decodeTerms appends the terms of one node — a term, or an AND of two
// nodes — to p.
func decodeTerms(r *storage.Reader, depth int, p *expr.Pred) error {
	if depth > maxExprDepth {
		return fmt.Errorf("persist: expression nesting exceeds %d", maxExprDepth)
	}
	tag, err := r.U8()
	if err != nil {
		return err
	}
	switch tag {
	case exprLogic:
		op, err := r.U8()
		if err != nil {
			return err
		}
		if op != logicAnd {
			return fmt.Errorf("persist: logic op %d in a filter; only AND joins terms", op)
		}
		if err := decodeTerms(r, depth+1, p); err != nil {
			return err
		}
		return decodeTerms(r, depth+1, p)
	case exprCmp:
		op, err := r.U8()
		if err != nil {
			return err
		}
		if expr.CmpOp(op) > expr.GE {
			return fmt.Errorf("persist: unknown comparison op %d", op)
		}
		col, err := readCol(r)
		if err != nil {
			return err
		}
		if err := readOperand(r, exprConst); err != nil {
			return err
		}
		v, err := readValue(r)
		if err != nil {
			return err
		}
		*p = append(*p, expr.Compare(col, expr.CmpOp(op), v))
		return nil
	case exprIn:
		col, err := readCol(r)
		if err != nil {
			return err
		}
		n, err := r.U32()
		if err != nil {
			return err
		}
		if int(n) > r.Remaining() {
			return fmt.Errorf("persist: IN list length %d exceeds payload", n)
		}
		var vals []storage.Value
		for range n {
			v, err := readValue(r)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		*p = append(*p, expr.In(col, vals...))
		return nil
	case exprBin:
		return fmt.Errorf("persist: arithmetic node in a filter")
	case exprNot:
		return fmt.Errorf("persist: NOT node in a filter")
	case exprNil, exprCol, exprConst:
		return fmt.Errorf("persist: expression tag %d where a filter term belongs", tag)
	}
	return fmt.Errorf("persist: unknown expression tag %d", tag)
}

// readCol reads a term's column operand.
func readCol(r *storage.Reader) (string, error) {
	if err := readOperand(r, exprCol); err != nil {
		return "", err
	}
	return r.Str()
}

// readOperand reads a term operand's tag, refusing any but want: a term is
// the column first and the literal second.
func readOperand(r *storage.Reader, want byte) error {
	tag, err := r.U8()
	if err != nil {
		return err
	}
	if tag != want {
		return fmt.Errorf("persist: expression tag %d as a term operand; a term compares a column with a literal", tag)
	}
	return nil
}

// appendValue writes a typed scalar: u8 type + payload.
func appendValue(dst []byte, v storage.Value) []byte {
	dst = append(dst, byte(v.Typ))
	switch v.Typ {
	case storage.Int64:
		return storage.AppendU64(dst, uint64(v.I))
	case storage.Float64:
		return storage.AppendF64(dst, v.F)
	case storage.String:
		return storage.AppendStr(dst, v.S)
	case storage.Bool:
		if v.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return dst
}

func readValue(r *storage.Reader) (storage.Value, error) {
	tb, err := r.U8()
	if err != nil {
		return storage.Value{}, err
	}
	switch storage.Type(tb) {
	case storage.Int64:
		x, err := r.U64()
		return storage.IntValue(int64(x)), err
	case storage.Float64:
		x, err := r.F64()
		return storage.FloatValue(x), err
	case storage.String:
		s, err := r.Str()
		return storage.StringValue(s), err
	case storage.Bool:
		b, err := r.U8()
		return storage.BoolValue(b != 0), err
	}
	return storage.Value{}, fmt.Errorf("persist: unknown value type %d", tb)
}
