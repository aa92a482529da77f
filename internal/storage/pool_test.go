package storage

import (
	"sync"
	"testing"
)

func poolSchema() Schema {
	return Schema{
		{Name: "a", Typ: Int64},
		{Name: "b", Typ: Float64},
		{Name: "c", Typ: String},
		{Name: "d", Typ: Bool},
	}
}

// TestVecPoolRecycle: a released batch's backing arrays come back on the next
// GetBatch, empty and type-correct. The identity of the backing array is only
// asserted without the race detector, under which sync.Pool drops Puts at
// random; a batch recycled or fresh must be empty and typed alike.
func TestVecPoolRecycle(t *testing.T) {
	p := NewVecPool()
	b := p.GetBatch(poolSchema(), 8)
	b.Vecs[0].I64 = append(b.Vecs[0].I64, 1, 2, 3)
	b.Vecs[1].F64 = append(b.Vecs[1].F64, 1.5)
	b.Vecs[2].Str = append(b.Vecs[2].Str, "x", "y")
	b.Vecs[3].B = append(b.Vecs[3].B, true)
	arr := &b.Vecs[0].I64[0]
	p.Release(b)

	b2 := p.GetBatch(poolSchema(), 8)
	if b2.Len() != 0 {
		t.Fatalf("recycled batch not empty: %d rows", b2.Len())
	}
	for i, c := range poolSchema() {
		if b2.Vecs[i].Typ != c.Typ {
			t.Fatalf("col %d: recycled type %v, want %v", i, b2.Vecs[i].Typ, c.Typ)
		}
	}
	b2.Vecs[0].I64 = append(b2.Vecs[0].I64, 9)
	if &b2.Vecs[0].I64[0] != arr && !raceEnabled {
		t.Error("int64 backing array was not recycled")
	}
}

// TestVecPoolNilSafe: all methods degrade to plain allocation on a nil pool.
func TestVecPoolNilSafe(t *testing.T) {
	var p *VecPool
	b := p.GetBatch(poolSchema(), 4)
	if b == nil || len(b.Vecs) != len(poolSchema()) {
		t.Fatal("nil pool GetBatch must return a fresh batch")
	}
	p.Release(b) // must not panic
	v := p.GetVector(Int64, 4)
	if v == nil || v.Typ != Int64 {
		t.Fatal("nil pool GetVector must allocate")
	}
	p.PutVector(v)
	sc := p.GetScratch()
	if sc == nil || len(sc.IDs(3)) != 3 {
		t.Fatal("nil pool GetScratch must allocate usable scratch")
	}
	p.PutScratch(sc)
}

// TestVecPoolConcurrent: hammering Get/Release from many goroutines must be
// race-free (run under -race) and never hand the same live vector out twice.
func TestVecPoolConcurrent(t *testing.T) {
	p := NewVecPool()
	sch := poolSchema()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.GetBatch(sch, 16)
				b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(w))
				for r := 0; r < b.Vecs[0].Len(); r++ {
					if b.Vecs[0].I64[r] != int64(w) {
						t.Errorf("vector aliased across goroutines")
						return
					}
				}
				p.Release(b)
			}
		}(w)
	}
	wg.Wait()
}

// TestReleaseTakesWidthsBack: a selection's live width sums only the
// selected rows' widths, and releasing a lent batch takes its width buffer
// back and leaves no selection on it (the selection is its filter's).
func TestReleaseTakesWidthsBack(t *testing.T) {
	p := NewVecPool()
	b := p.GetBatch(Schema{{Name: "t.x", Typ: Int64}}, 4)
	b.Vecs[0].I64 = append(b.Vecs[0].I64, 10, 11, 12, 13)
	b.Width = append(p.GetSel(4), 8, 9, 10, 11)
	b.Sel = append(p.GetSel(2), 1, 3)
	if b.LiveWidth() != 20 {
		t.Fatalf("live width under selection = %d, want 20", b.LiveWidth())
	}
	p.Release(b)
	if b.Sel != nil || b.Width != nil {
		t.Fatalf("release left sel %v and widths %v on the batch", b.Sel, b.Width)
	}
}

// TestVecPoolRecycledVectorForgetsCodes: a coded string vector goes back to
// the pool without its dictionary — only the code array's capacity comes
// back — so whatever column the recycled vector serves next, coded under
// another dictionary or not coded at all, never reads the old column's codes
// as its own.
func TestVecPoolRecycledVectorForgetsCodes(t *testing.T) {
	flags := strTable(t, "f", []string{"A", "N", "R", "N", "A"}, 1).Column(1)
	modes := strTable(t, "m", []string{"AIR", "RAIL", "AIR"}, 1).Column(1)
	schema := Schema{{Name: "s", Typ: String}}
	p := NewVecPool()
	for round, src := range []*Vector{flags, {Typ: String, Str: []string{"x", "y"}}, modes, flags} {
		b := p.GetBatch(schema, 8)
		v := b.Vecs[0]
		if v.Dict != nil || len(v.Code) != 0 || v.Len() != 0 {
			t.Fatalf("round %d: recycled vector arrives coded (dict %v, %d codes, %d rows)", round, v.Dict != nil, len(v.Code), v.Len())
		}
		v.Extend(src)
		if v.Dict != src.Dict {
			t.Fatalf("round %d: an empty pooled vector did not take its source's dictionary", round)
		}
		checkCoded(t, "pooled", v)
		// A second source under another dictionary drops the codes for good.
		v.AppendFrom(modes, 1)
		if src.Dict != modes.Dict && v.Dict != nil {
			t.Fatalf("round %d: codes survived a dictionary mismatch", round)
		}
		checkCoded(t, "pooled, mixed", v)
		p.Release(b)
	}
}

// TestBatchResetFillsAsNew: a reset batch keeps its arrays but no row,
// selection, width sum or table offset, and its string vector, uncoded
// again, takes the next source's dictionary as a new vector would — so a
// stage refilling its batch never reads the last fill's codes.
func TestBatchResetFillsAsNew(t *testing.T) {
	flags := strTable(t, "f", []string{"A", "N", "R", "N", "A"}, 1).Column(1)
	modes := strTable(t, "m", []string{"AIR", "RAIL", "AIR"}, 1).Column(1)
	b := NewBatch(Schema{{Name: "s", Typ: String}, {Name: "x", Typ: Int64}}, 4)
	for round, src := range []*Vector{flags, modes, {Typ: String, Str: []string{"x", "y"}}, flags} {
		v := b.Vecs[0]
		v.AppendGather(src, []int32{0, 1})
		b.Vecs[1].I64 = append(b.Vecs[1].I64, 1, 2)
		b.Width = append(b.Width, 8, 9)
		b.WidthSum, b.Sel, b.Start = 17, []int32{1}, 5
		if v.Dict != src.Dict {
			t.Fatalf("round %d: a reset vector did not take its source's dictionary", round)
		}
		checkCoded(t, "reset", v)
		arr := &b.Vecs[1].I64[0]
		b.Reset()
		if b.Len() != 0 || len(b.Width) != 0 || b.Sel != nil || b.WidthSum != 0 || b.Start != 0 {
			t.Fatalf("round %d: reset left %d rows, %d widths, sel %v, sum %d, start %d", round, b.Len(), len(b.Width), b.Sel, b.WidthSum, b.Start)
		}
		if v.Dict != nil || len(v.Code) != 0 {
			t.Fatalf("round %d: reset vector still coded", round)
		}
		if b.Vecs[1].I64 = append(b.Vecs[1].I64, 3); &b.Vecs[1].I64[0] != arr {
			t.Fatalf("round %d: reset dropped the int64 array", round)
		}
		b.Reset()
	}
}

// TestSelCycleAllocatesNothing: once a buffer and its holder exist, a
// GetSel/PutSel pair allocates nothing — the holder PutSel needs is one an
// earlier GetSel emptied. Not under the race detector, where sync.Pool drops
// a share of Puts and a dropped buffer is allocated again.
func TestSelCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := NewVecPool()
	p.PutSel(p.GetSel(64))
	if allocs := testing.AllocsPerRun(100, func() {
		s := p.GetSel(64)
		p.PutSel(append(s, 1, 2, 3))
	}); allocs != 0 {
		t.Fatalf("a GetSel/PutSel pair allocates %.1f times", allocs)
	}
}
