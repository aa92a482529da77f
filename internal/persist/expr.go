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
// A filter is its list of terms: a u32 term count, then per term a u8
// operator (expr.CmpOp), the column as a u32-length-prefixed string, a u32
// value count and the values (appendValue). A comparison carries exactly one
// value and an IN list at least one, as the parser builds them; no filter is
// a count of 0. Every count is checked against the bytes left before
// anything is read or allocated for it.

// EncodeExpr appends p's binary encoding to dst.
func EncodeExpr(dst []byte, p expr.Pred) ([]byte, error) {
	dst = storage.AppendU32(dst, uint32(len(p)))
	for _, t := range p {
		vals := t.List
		switch {
		case t.Op == expr.IN && len(vals) > 0:
		case t.Op <= expr.GE:
			vals = []storage.Value{t.Val}
		default:
			return dst, fmt.Errorf("persist: cannot encode operator %d with %d values in a filter on %q", t.Op, len(t.List), t.Col)
		}
		dst = storage.AppendStr(append(dst, byte(t.Op)), t.Col)
		dst = storage.AppendU32(dst, uint32(len(vals)))
		for _, v := range vals {
			dst = appendValue(dst, v)
		}
	}
	return dst, nil
}

// DecodeExpr reverses EncodeExpr over a whole payload.
func DecodeExpr(b []byte) (expr.Pred, error) {
	r := storage.NewReader(b)
	n, err := r.U32()
	if err == nil && int(n) > r.Remaining() {
		err = fmt.Errorf("persist: filter term count %d exceeds payload", n)
	}
	if err != nil {
		return nil, err
	}
	var p expr.Pred
	for range n {
		op, err := r.U8()
		if err != nil {
			return nil, err
		}
		col, err := r.Str()
		if err != nil {
			return nil, err
		}
		k, err := r.U32()
		if err != nil {
			return nil, err
		}
		switch {
		case expr.CmpOp(op) > expr.IN:
			return nil, fmt.Errorf("persist: unknown filter operator %d", op)
		case int(k) > r.Remaining():
			return nil, fmt.Errorf("persist: filter value count %d exceeds payload", k)
		case expr.CmpOp(op) == expr.IN && k == 0:
			return nil, fmt.Errorf("persist: IN list on %q without values", col)
		case expr.CmpOp(op) < expr.IN && k != 1:
			return nil, fmt.Errorf("persist: comparison on %q with %d values", col, k)
		}
		vals := make([]storage.Value, k)
		for i := range vals {
			if vals[i], err = readValue(r); err != nil {
				return nil, err
			}
		}
		if expr.CmpOp(op) == expr.IN {
			p = append(p, expr.In(col, vals...))
		} else {
			p = append(p, expr.Compare(col, expr.CmpOp(op), vals[0]))
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after filter", r.Remaining())
	}
	return p, nil
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
		if err == nil && b > 1 {
			err = fmt.Errorf("persist: boolean byte %d", b)
		}
		return storage.BoolValue(b != 0), err
	}
	return storage.Value{}, fmt.Errorf("persist: unknown value type %d", tb)
}
