// Package pool is the poolsafe fixture: every VecPool Get result must be
// released, returned or handed onward; discarded or read-only-local
// results are the leak shapes.
package pool

// Batch stands in for the real pooled batch; Sel mirrors the selection
// vector the kernel filter path attaches to hand survivors downstream.
type Batch struct {
	n   int
	Sel []int32
}

// Len reports the batch size.
func (b *Batch) Len() int { return b.n }

// VecPool matches the real pool by name, which is how the analyzer binds.
type VecPool struct{}

// GetBatch vends a pooled batch.
func (p *VecPool) GetBatch(n int) *Batch { return &Batch{n: n} }

// GetVector vends a pooled vector.
func (p *VecPool) GetVector(n int) []float64 { return make([]float64, n) }

// GetSel vends a pooled selection-vector buffer.
func (p *VecPool) GetSel(n int) []int32 { return make([]int32, 0, n) }

// PutSel returns a selection buffer to the pool.
func (p *VecPool) PutSel(sel []int32) {}

// GetBits vends a pooled row bitmap.
func (p *VecPool) GetBits(rows int) []uint64 { return make([]uint64, (rows+63)/64) }

// PutBits returns a row bitmap to the pool.
func (p *VecPool) PutBits(m []uint64) {}

// Release returns a batch to the pool.
func (p *VecPool) Release(b *Batch) {}

// Bad: the result is dropped on the floor — it can never be released.
func discard(p *VecPool) {
	p.GetBatch(8) // want `pooled GetBatch result discarded`
}

// Bad: bound to a local that is only ever read; no Release, no hand-off.
func leak(p *VecPool) int {
	b := p.GetBatch(8) // want `pooled GetBatch result b never escapes this function`
	n := 0
	for i := 0; i < b.Len(); i++ {
		n += i
	}
	return n
}

// Bad: writing into the vector is still local-only; ownership never moves.
func leakVec(p *VecPool) {
	v := p.GetVector(4) // want `pooled GetVector result v never escapes this function`
	v[0] = 1.5
}

// Good: release-on-consume via defer.
func useAndRelease(p *VecPool) int {
	b := p.GetBatch(8)
	defer p.Release(b)
	return b.Len()
}

// Good: ownership transfers with the returned reference.
func handOff(p *VecPool) *Batch {
	b := p.GetBatch(4)
	return b
}

type sink struct{ kept *Batch }

// Good: stored into a field — the structure now owns the batch.
func stash(p *VecPool, s *sink) {
	b := p.GetBatch(2)
	s.kept = b
}

// Good: handed onward through append.
func collect(p *VecPool, out [][]float64) [][]float64 {
	v := p.GetVector(4)
	return append(out, v)
}

// Good: the audited escape hatch.
func scratch(p *VecPool) int {
	//taster:pooled fixture: scratch buffer measured for capacity only, arena freed wholesale
	b := p.GetBatch(1)
	return b.Len()
}

// Good: an annotated intentional drop (pool warm-up).
func prewarm(p *VecPool) {
	//taster:pooled fixture: warm-up primes the freelist, the result is deliberately dropped
	p.GetBatch(64)
}

// Bad: a selection buffer that stays a read-only local leaks from the pool
// exactly like a batch.
func leakSel(p *VecPool) int {
	sel := p.GetSel(8) // want `pooled GetSel result sel never escapes this function`
	n := 0
	for range sel {
		n++
	}
	return n
}

// Good: the (batch, sel) hand-off — storing the pooled buffer into
// Batch.Sel transfers ownership to the batch, whose Release reclaims it.
func attachSel(p *VecPool, b *Batch) {
	sel := p.GetSel(b.Len())
	b.Sel = sel
}

// Good: survivors refined into the buffer, then returned to the pool.
func refineAndPut(p *VecPool) {
	sel := p.GetSel(4)
	p.PutSel(sel)
}

// Bad: a row bitmap that stays a read-only local leaks like a selection.
func leakBits(p *VecPool) int {
	m := p.GetBits(128) // want `pooled GetBits result m never escapes this function`
	n := 0
	for _, w := range m {
		n += int(w & 1)
	}
	return n
}

// Good: a bitmap marked, read and handed back.
func bitsAndPut(p *VecPool) int {
	m := p.GetBits(128)
	m[0] |= 1
	n := int(m[0])
	p.PutBits(m)
	return n
}
