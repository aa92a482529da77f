package storage

import (
	"sync"

	"github.com/tasterdb/taster/internal/obs"
)

// VecPool recycles vector backing arrays, batch headers and group
// resolution scratch across the runs of one engine. A batch belongs to the
// stage that filled it and stays valid until that stage is asked again: a
// consumer that keeps anything copies it out (a sink folds, a join gathers,
// a sampler records table positions), so no batch changes hands and nothing
// is lent per batch. What a stage fills again and again — a filter's
// selection, a sampler's output batch, a join's chunk, a sink's fold
// scratch — is its morsel worker's, borrowed from the pool once when the
// worker starts and handed back when it is done; a build side borrows its
// filter's selection for the length of its drain. So memory stays warm
// across queries without a pool call on the per-batch path. The pool is
// type-segregated (one free list per vector type, so an int64 backing array
// is never reused as a float64 one) and sync.Pool-backed, so the workers of
// concurrent runs borrow and return without locking discipline of their own.
// Pool memory never escapes past the result boundary: Batch.Row boxes values
// (copying scalars and string headers, which stay valid after the backing
// []string is reused), so result assembly is already a copy-out.
//
// All methods are nil-receiver safe: a nil *VecPool allocates fresh memory
// and ignores returns, keeping pool-free paths (tests, tools) identical in
// behaviour.
type VecPool struct {
	i64     sync.Pool // *Vector with Typ Int64
	f64     sync.Pool // *Vector with Typ Float64
	str     sync.Pool // *Vector with Typ String
	b       sync.Pool // *Vector with Typ Bool
	batches sync.Pool // *Batch with Vecs emptied
	sels    sync.Pool // *[]int32 selection-vector scratch
	holders sync.Pool // *[]int32 emptied by GetSel, for PutSel to fill
	scratch sync.Pool // *ResolveScratch

	// Obs counts pool traffic: a get on every borrow (GetBatch's header,
	// GetVector, GetSel, GetScratch), a put on every return, and a miss on
	// every borrow the free lists could not serve, so misses over gets is
	// the pool's miss rate. A worker borrows once per run, not per batch, so
	// the atomic adds stay off the per-batch path. Write-only, nil-safe,
	// never consulted by pool logic.
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
	p.Obs.Get()
	if v, ok := fl.Get().(*Vector); ok && v != nil {
		return v
	}
	p.Obs.Miss()
	return NewVector(t, n)
}

// PutVector recycles a vector obtained from GetVector. Its length resets to
// zero; a String payload is cleared first so a recycled array does not pin
// the strings of a previous run beyond their lifetime, and the vector
// forgets its dictionary — it comes back uncoded, keeping only the code
// array's capacity — so it never reads another column's codes as its own.
func (p *VecPool) PutVector(v *Vector) {
	if p == nil || v == nil || p.poolFor(v.Typ) == nil {
		return
	}
	if v.Typ == String {
		clear(v.Str)
	}
	v.truncate()
	p.Obs.Put()
	p.poolFor(v.Typ).Put(v)
}

// GetSel returns an empty selection-vector scratch buffer (capacity hint n
// applies only to fresh allocations): a filter's selection, a lent batch's
// widths, a probe's pair list. PutSel hands it back, or Release with the
// batch.
func (p *VecPool) GetSel(n int) []int32 {
	if p == nil {
		return make([]int32, 0, n)
	}
	p.Obs.Get()
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
	p.Obs.Put()
	p.sels.Put(h)
}

// GetBatch returns an empty batch for the schema whose vectors and widths
// come from the pool's free lists. The borrower fills and resets it
// (Batch.Reset) for as long as it needs it and hands it back once with
// Release.
func (p *VecPool) GetBatch(schema Schema, n int) *Batch {
	if p == nil {
		return NewBatch(schema, n)
	}
	p.Obs.Get()
	b, ok := p.batches.Get().(*Batch)
	if !ok || b == nil {
		p.Obs.Miss()
		b = &Batch{}
	}
	b.Schema = schema
	if cap(b.Vecs) < len(schema) {
		b.Vecs = make([]*Vector, len(schema))
	}
	b.Vecs = b.Vecs[:len(schema)]
	for i, c := range schema {
		b.Vecs[i] = p.GetVector(c.Typ, n)
	}
	b.Width = p.GetSel(n)
	return b
}

// Release takes back a batch GetBatch lent — its vectors, its widths and its
// header — but no selection: a selection is the filter's that filled it.
// Each lent batch is released exactly once, by its borrower.
func (p *VecPool) Release(b *Batch) {
	if p == nil || b == nil {
		return
	}
	p.PutSel(b.Width)
	p.Obs.Put()
	for i, v := range b.Vecs {
		p.PutVector(v)
		b.Vecs[i] = nil
	}
	*b = Batch{Vecs: b.Vecs[:0]}
	p.batches.Put(b)
}

// GetScratch returns group resolution scratch (GroupIndex.Resolve), grown
// to whatever an earlier borrower needed; PutScratch hands it back.
func (p *VecPool) GetScratch() *ResolveScratch {
	if p == nil {
		return new(ResolveScratch)
	}
	p.Obs.Get()
	if sc, ok := p.scratch.Get().(*ResolveScratch); ok && sc != nil {
		return sc
	}
	p.Obs.Miss()
	return new(ResolveScratch)
}

// PutScratch hands back scratch GetScratch returned.
func (p *VecPool) PutScratch(sc *ResolveScratch) {
	if p != nil && sc != nil {
		p.Obs.Put()
		p.scratch.Put(sc)
	}
}
