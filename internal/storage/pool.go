package storage

import (
	"sync"

	"github.com/tasterdb/taster/internal/obs"
)

// VecPool recycles vector backing arrays and batch headers within one query
// execution. The hot serving path produces thousands of short-lived batches
// per query (filter gathers, join probe output, sampler output); without
// recycling every chunk allocates fresh slices, and under concurrent serving
// the allocator becomes the serialization point. The pool is type-segregated
// (one free list per vector type, so an int64 backing array is never reused
// as a float64 one) and sync.Pool-backed, so morsel workers may Get/Release
// concurrently without locking discipline of their own.
//
// Ownership contract: a batch obtained from GetBatch is owned by whoever
// holds it; ownership transfers downstream with the batch. The final
// consumer calls Release exactly once when it has copied out (or finished
// observing) every value. Release on a batch that did not come from a pool
// is a no-op, so consumers may release unconditionally — scans handing out
// table-owned storage are never recycled. Pooled memory must never escape
// past the result boundary: Batch.Row boxes values (copying scalars and
// string headers, which stay valid after the backing []string is reused), so
// result assembly is already a copy-out.
//
// All methods are nil-receiver safe: a nil *VecPool allocates fresh memory
// and ignores releases, keeping pool-free paths (tests, tools) identical in
// behaviour.
type VecPool struct {
	i64     sync.Pool // *Vector with Typ Int64
	f64     sync.Pool // *Vector with Typ Float64
	str     sync.Pool // *Vector with Typ String
	b       sync.Pool // *Vector with Typ Bool
	batches sync.Pool // *Batch with Vecs emptied
	sels    sync.Pool // *[]int32 selection-vector scratch
	holders sync.Pool // *[]int32 emptied by GetSel, for PutSel to fill

	// Obs counts pool traffic: batch gets/puts at batch granularity and
	// allocation misses on the slow paths only, so the hot reuse path pays a
	// single nil test. Write-only, nil-safe, never consulted by pool logic.
	Obs *obs.PoolObs
}

// NewVecPool returns an empty pool.
func NewVecPool() *VecPool { return &VecPool{} }

// poolFor returns the free list for a vector type.
func (p *VecPool) poolFor(t Type) *sync.Pool {
	switch t {
	case Int64:
		return &p.i64
	case Float64:
		return &p.f64
	case String:
		return &p.str
	case Bool:
		return &p.b
	}
	return nil
}

// GetVector returns an empty vector of the given type, reusing a recycled
// backing array when one is available (capacity hint n applies only to fresh
// allocations; recycled arrays keep whatever capacity they grew to).
func (p *VecPool) GetVector(t Type, n int) *Vector {
	if p == nil {
		return NewVector(t, n)
	}
	fl := p.poolFor(t)
	if fl == nil {
		return NewVector(t, n)
	}
	if v, ok := fl.Get().(*Vector); ok && v != nil {
		return v
	}
	p.Obs.Miss()
	return NewVector(t, n)
}

// putVector recycles one vector. Lengths reset to zero; String payloads are
// cleared first so recycled arrays do not pin the strings of a previous
// batch beyond their lifetime, and the vector forgets its dictionary — it
// comes back uncoded, keeping only the code array's capacity — so it never
// reads another column's codes as its own.
func (p *VecPool) putVector(v *Vector) {
	if p == nil || v == nil {
		return
	}
	switch v.Typ {
	case Int64:
		v.I64 = v.I64[:0]
	case Float64:
		v.F64 = v.F64[:0]
	case String:
		clear(v.Str)
		v.Str = v.Str[:0]
		v.dropCodes()
	case Bool:
		v.B = v.B[:0]
	default:
		return
	}
	p.poolFor(v.Typ).Put(v)
}

// GetSel returns an empty selection-vector scratch buffer (capacity hint n
// applies only to fresh allocations). The buffer follows the same ownership
// contract as pooled vectors: attach it to a batch (Batch.Sel) and it is
// reclaimed when the batch is released or materialized, or hand it back
// directly with PutSel.
func (p *VecPool) GetSel(n int) []int32 {
	if p == nil {
		return make([]int32, 0, n)
	}
	if h, ok := p.sels.Get().(*[]int32); ok && h != nil {
		s := (*h)[:0]
		*h = nil
		p.holders.Put(h)
		return s
	}
	p.Obs.Miss()
	return make([]int32, 0, n)
}

// PutSel recycles a selection buffer obtained from GetSel. The buffer goes
// back in a holder GetSel emptied, so a steady Get/Put cycle allocates
// nothing: sync.Pool keeps pointers, and a slice header put as one would
// otherwise be boxed on the heap at every call.
func (p *VecPool) PutSel(sel []int32) {
	if p == nil || sel == nil {
		return
	}
	h, _ := p.holders.Get().(*[]int32)
	if h == nil {
		h = new([]int32)
	}
	*h = sel[:0]
	p.sels.Put(h)
}

// GetBatch returns an empty batch for the schema whose vectors come from the
// pool's free lists. The batch is marked pooled: Release will recycle it.
func (p *VecPool) GetBatch(schema Schema, n int) *Batch {
	if p == nil {
		return NewBatch(schema, n)
	}
	p.Obs.Get()
	var b *Batch
	if pb, ok := p.batches.Get().(*Batch); ok && pb != nil {
		b = pb
		b.Schema = schema
		if cap(b.Vecs) < len(schema) {
			b.Vecs = make([]*Vector, len(schema))
		} else {
			b.Vecs = b.Vecs[:len(schema)]
		}
	} else {
		p.Obs.Miss()
		b = &Batch{Schema: schema, Vecs: make([]*Vector, len(schema))}
	}
	for i, c := range schema {
		b.Vecs[i] = p.GetVector(c.Typ, n)
	}
	b.Sel, b.Width, b.WidthSum, b.Start = nil, nil, 0, 0
	b.pooled = true
	return b
}

// Release recycles a pooled batch's vectors and header. Batches that did not
// come from GetBatch (table-owned scan output, sink-emitted results)
// keep their vectors, but an attached selection buffer is reclaimed either
// way — filters attach pool-owned Sel buffers to table-owned scan batches,
// and those must flow back like any pooled memory. Callers release every
// consumed batch unconditionally. Double release is a defended no-op: the
// pooled mark and Sel clear on first release.
func (p *VecPool) Release(b *Batch) {
	if p == nil || b == nil {
		return
	}
	if b.Sel != nil {
		p.PutSel(b.Sel)
		b.Sel = nil
	}
	if !b.pooled {
		return
	}
	b.pooled = false
	// A pooled batch's widths are pool memory like its selection; scan output
	// (not pooled) carries a view of the partition's own array.
	p.PutSel(b.Width)
	b.Width, b.WidthSum = nil, 0
	p.Obs.Put()
	for i, v := range b.Vecs {
		p.putVector(v)
		b.Vecs[i] = nil
	}
	b.Vecs = b.Vecs[:0]
	b.Schema = nil
	p.batches.Put(b)
}

// Pooled reports whether the batch is pool-owned (diagnostics and tests).
func (b *Batch) Pooled() bool { return b.pooled }
