package storage

import (
	"fmt"
	"slices"
)

// Vector is a typed column of values. Exactly one of the data slices is in
// use, selected by Typ. Vectors are the unit of data flow between physical
// operators (grouped into Batches).
//
// A String vector may carry a dictionary side-car: when Dict is non-nil the
// vector is coded — len(Code) == len(Str), and Code[i] is the number Dict
// gives the value Str[i]. Str stays the truth (sizes, codecs and comparisons
// read it) and the codes are an accelerator for consumers that only need
// value identity: group resolution, per-code statistics. Tables assign codes
// at construction (dict.go); the copying methods below carry them while
// source and destination agree on the dictionary, or the destination is still
// empty, and drop them otherwise. When Dict is nil, Code is meaningless (a
// recycled vector keeps its capacity there).
type Vector struct {
	Typ Type
	I64 []int64
	F64 []float64
	Str []string
	B   []bool

	Code []uint32
	Dict *Dict
}

// NewVector returns an empty vector of the given type with capacity hint n.
func NewVector(t Type, n int) *Vector {
	v := &Vector{Typ: t}
	switch t {
	case Int64:
		v.I64 = make([]int64, 0, n)
	case Float64:
		v.F64 = make([]float64, 0, n)
	case String:
		v.Str = make([]string, 0, n)
	case Bool:
		v.B = make([]bool, 0, n)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Typ {
	case Int64:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	case String:
		return len(v.Str)
	case Bool:
		return len(v.B)
	}
	return 0
}

// Append adds a Value, which must match the vector type.
func (v *Vector) Append(val Value) {
	if val.Typ != v.Typ {
		panic(fmt.Sprintf("storage: appending %s value to %s vector", val.Typ, v.Typ))
	}
	switch v.Typ {
	case Int64:
		v.I64 = append(v.I64, val.I)
	case Float64:
		v.F64 = append(v.F64, val.F)
	case String:
		v.dropCodes()
		v.Str = append(v.Str, val.S)
	case Bool:
		v.B = append(v.B, val.B)
	}
}

// dropCodes makes a coded vector uncoded, keeping Code's capacity.
func (v *Vector) dropCodes() {
	v.Code, v.Dict = v.Code[:0], nil
}

// truncate empties the vector, keeping its arrays' capacity; it comes back
// uncoded, so the next source it copies from lends it its dictionary as a
// new vector's would.
func (v *Vector) truncate() {
	v.I64, v.F64, v.Str, v.B = v.I64[:0], v.F64[:0], v.Str[:0], v.B[:0]
	v.dropCodes()
}

// carriesCodes decides, before strings of src are appended onto v, whether
// their codes come along: yes when src is coded and v either is still empty
// (it adopts src's dictionary) or is coded under the same dictionary. In
// every other case v ends up uncoded.
func (v *Vector) carriesCodes(src *Vector) bool {
	switch {
	case src.Dict == nil:
	case len(v.Str) == 0:
		v.Code, v.Dict = v.Code[:0], src.Dict
		return true
	case v.Dict == src.Dict:
		return true
	}
	if v.Dict != nil {
		v.dropCodes()
	}
	return false
}

// AppendFrom copies value at index i of src (same type) onto v.
func (v *Vector) AppendFrom(src *Vector, i int) {
	switch v.Typ {
	case Int64:
		v.I64 = append(v.I64, src.I64[i])
	case Float64:
		v.F64 = append(v.F64, src.F64[i])
	case String:
		if v.carriesCodes(src) {
			v.Code = append(v.Code, src.Code[i])
		}
		v.Str = append(v.Str, src.Str[i])
	case Bool:
		v.B = append(v.B, src.B[i])
	}
}

// AppendGather appends src[rows[0]], src[rows[1]], ... onto v (same type):
// the batched AppendFrom, one type dispatch per column per chunk instead of
// one per value.
func (v *Vector) AppendGather(src *Vector, rows []int32) {
	switch v.Typ {
	case Int64:
		v.I64 = appendGather(v.I64, src.I64, rows)
	case Float64:
		v.F64 = appendGather(v.F64, src.F64, rows)
	case String:
		if v.carriesCodes(src) {
			v.Code = appendGather(v.Code, src.Code, rows)
		}
		v.Str = appendGather(v.Str, src.Str, rows)
	case Bool:
		v.B = appendGather(v.B, src.B, rows)
	}
}

// appendGather grows dst once and stores through an index: a join's output
// is mostly this loop, and append's per-element capacity check showed in it.
func appendGather[T any](dst, src []T, rows []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	out := dst[n:][:len(rows)]
	for k, r := range rows {
		out[k] = src[r]
	}
	return dst
}

// Extend appends all values of src (same type) onto v.
func (v *Vector) Extend(src *Vector) {
	switch v.Typ {
	case Int64:
		v.I64 = append(v.I64, src.I64...)
	case Float64:
		v.F64 = append(v.F64, src.F64...)
	case String:
		if v.carriesCodes(src) {
			v.Code = append(v.Code, src.Code...)
		}
		v.Str = append(v.Str, src.Str...)
	case Bool:
		v.B = append(v.B, src.B...)
	}
}

// Get returns the i-th element boxed as a Value.
func (v *Vector) Get(i int) Value {
	switch v.Typ {
	case Int64:
		return Value{Typ: Int64, I: v.I64[i]}
	case Float64:
		return Value{Typ: Float64, F: v.F64[i]}
	case String:
		return Value{Typ: String, S: v.Str[i]}
	case Bool:
		return Value{Typ: Bool, B: v.B[i]}
	}
	return Value{}
}

// Float returns element i coerced to float64 (numeric vectors only).
func (v *Vector) Float(i int) float64 {
	switch v.Typ {
	case Int64:
		return float64(v.I64[i])
	case Float64:
		return v.F64[i]
	}
	panic("storage: Float on non-numeric vector " + v.Typ.String())
}

// Slice returns a view of [lo, hi). The returned vector shares storage.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := new(Vector)
	out.view(v, lo, hi)
	return out
}

// view re-points v at src's [lo, hi), sharing src's storage.
func (v *Vector) view(src *Vector, lo, hi int) {
	*v = Vector{Typ: src.Typ}
	switch src.Typ {
	case Int64:
		v.I64 = src.I64[lo:hi]
	case Float64:
		v.F64 = src.F64[lo:hi]
	case String:
		v.Str = src.Str[lo:hi]
		if src.Dict != nil {
			v.Code, v.Dict = src.Code[lo:hi], src.Dict
		}
	case Bool:
		v.B = src.B[lo:hi]
	}
}

// Bytes returns the in-memory size of the vector payload in bytes.
func (v *Vector) Bytes() int64 {
	switch v.Typ {
	case Int64:
		return int64(len(v.I64)) * 8
	case Float64:
		return int64(len(v.F64)) * 8
	case Bool:
		return int64(len(v.B))
	case String:
		var n int64
		for _, s := range v.Str {
			n += int64(len(s)) + 16 // string header overhead
		}
		return n
	}
	return 0
}

// Batch is a horizontal slice of rows in columnar form: all vectors have the
// same length. It is the unit passed between the stages of a run, and it
// belongs to the stage that filled it: it stays valid until that stage is
// asked again, and a consumer that keeps anything copies it out.
type Batch struct {
	Schema Schema
	Vecs   []*Vector
	// Sel is the batch's selection vector: when non-nil, only the rows at
	// the listed physical indices — in that order, always ascending — are
	// live; the vectors still hold every physical row. A vectorized filter
	// hands up its input's vectors under a selection of its own instead of
	// gathering survivors into fresh vectors, so a selective predicate costs
	// no per-batch copy. Every consumer of a filtered batch — the sinks'
	// tables, the join prober, a build side's drain — iterates under it.
	Sel []int32
	// Width is what each physical row costs to exchange: the payload bytes of
	// the whole logical row the batch row stands for, whether or not every
	// column of it is among Vecs. Scans slice it from the partition's cached
	// row widths, samplers add their weight column's 8 bytes, a join sums its
	// two sides; cost accounting sums it over live rows (LiveWidth) instead of
	// walking the columns, so projecting a spine down to the columns a query
	// reads moves no simulated byte. Nil on batches nothing charges for (sink
	// output, sort output). On a batch VecPool.GetBatch lent the buffer is
	// pool memory (GetSel), which Release takes back; on scan output it is
	// table-owned.
	Width []int32
	// WidthSum is Σ Width over every physical row, kept by a producer that
	// sums the widths as it writes them (a join's chunk or lookup batch); 0
	// when none did. It is read only while Sel is nil (SummedWidth): a
	// selection attached later leaves it standing but unread. Reset clears
	// it.
	WidthSum int64
	// Start is the table row of physical row 0 on a batch a table scan cut
	// (Table.Scan, a Cursor): the partition's offset plus the row
	// within it. Filters pass the batch on, so a join's build side reads its
	// survivors' table rows from it (Table.KeyIndex). 0 on every other batch.
	Start int
}

// BatchSize is the default number of rows per batch produced by scans.
const BatchSize = 1024

// NewBatch allocates an empty batch for the schema with capacity hint n.
func NewBatch(schema Schema, n int) *Batch {
	b := &Batch{Schema: schema, Vecs: make([]*Vector, len(schema))}
	for i, c := range schema {
		b.Vecs[i] = NewVector(c.Typ, n)
	}
	return b
}

// Reset empties the batch for the stage that fills it to fill again: every
// vector and the widths keep their arrays' capacity, and no selection, width
// sum or table offset is left.
func (b *Batch) Reset() {
	for _, v := range b.Vecs {
		v.truncate()
	}
	b.Sel, b.Width, b.WidthSum, b.Start = nil, b.Width[:0], 0, 0
}

// Len returns the number of physical rows in the batch's vectors. Callers
// iterating row data must honor Sel (or use Rows for the live count). A batch
// projected down to no column at all — COUNT(*) reads none — still has rows:
// its widths say how many.
func (b *Batch) Len() int {
	if len(b.Vecs) == 0 {
		return len(b.Width)
	}
	return b.Vecs[0].Len()
}

// Rows returns the number of live rows: the selection length when a
// selection vector is attached, the physical length otherwise. Cost counters
// charge live rows so a selection-carrying batch and its gathered equivalent
// account identically.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len()
}

// SummedWidth returns the batch's WidthSum and whether it is the live rows'
// width: a producer kept one and no selection has been attached since.
func (b *Batch) SummedWidth() (int64, bool) {
	return b.WidthSum, b.Sel == nil && b.WidthSum != 0
}

// LiveWidth sums Width over the live rows: the bytes an exchange of this
// batch moves. It equals the column-major sum of every live value's bytes
// over the full-width row — the same integers added in another order. A
// batch whose producer's sum stands (SummedWidth) is not walked again.
func (b *Batch) LiveWidth() int64 {
	if n, ok := b.SummedWidth(); ok {
		return n
	}
	var n int64
	if b.Sel != nil {
		for _, i := range b.Sel {
			n += int64(b.Width[i])
		}
		return n
	}
	for _, w := range b.Width {
		n += int64(w)
	}
	return n
}

// Row returns row i boxed as a slice of Values (for tests and result sets).
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Get(i)
	}
	return out
}
