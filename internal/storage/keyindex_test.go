package storage

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKeyIndexLayout pins which of the three layouts each key shape takes —
// unique dense (rowOf) for one Int64 column under the span rule whose keys
// each have one row (surrogate keys, a selective filter's survivors under
// the span floor, a range straddling zero); dense runs for such a column
// with duplicates; numbered for every other key (Int64 keys with no
// locality, float64, bool, strings, tuples) — that Keys counts distinct keys
// in all three, and what Bytes reports for each: the join cache bounds its
// pinned bytes by it. A dense layout's arrays are pinned exactly; a numbered
// index adds its GroupIndex to its runs. Whether the lookups answer like a
// Go map is exec's TestJoinIndexMatchesMap and FuzzJoinIndex.
func TestKeyIndexLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ints := func(keys ...int64) *Vector { return &Vector{Typ: Int64, I64: keys} }
	surrogate := make([]int64, 5000)
	for i, p := range rng.Perm(5000) {
		surrogate[i] = int64(p) + 1
	}
	gaps := make([]int64, 6000)
	for i := range gaps {
		gaps[i] = 100 + 2*int64(rng.Intn(900))
	}
	zero := make([]int64, 4001)
	for i := range zero {
		zero[i] = int64(i) - 2000
	}
	sparse := make([]int64, 5000)
	for i := range sparse {
		sparse[i] = rng.Int63() - rng.Int63()
	}
	copy(sparse[4000:], sparse[:1000])
	subset, spread := make([]int64, 133), make([]int64, 133)
	for i, p := range rng.Perm(20000)[:133] {
		subset[i], spread[i] = int64(p)+1, 1000*(int64(p)+1)
	}
	bools := &Vector{Typ: Bool}
	for i := 0; i < 300; i++ {
		bools.B = append(bools.B, rng.Intn(3) == 0)
	}
	floats := &Vector{Typ: Float64, F64: []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Inf(1), math.Inf(-1), 0, math.NaN()}}
	strs := &Vector{Typ: String}
	for i := 0; i < 400; i++ {
		strs.Str = append(strs.Str, string(rune('a'+i%26)))
	}

	const (
		unique   = "unique dense"
		runs     = "dense runs"
		numbered = "numbered"
	)
	for _, c := range []struct {
		name   string
		vecs   []*Vector
		cols   []int
		layout string
		keys   int
	}{
		{"dense surrogate keys", []*Vector{ints(surrogate...)}, []int{0}, unique, 5000},
		{"span 1800 over 6000 rows", []*Vector{ints(gaps...)}, []int{0}, runs, countDistinct(gaps)},
		{"straddling zero", []*Vector{ints(zero...)}, []int{0}, unique, 4001},
		{"random 63-bit keys", []*Vector{ints(sparse...)}, []int{0}, numbered, 4000},
		{"MinInt64 and MaxInt64 together", []*Vector{ints(math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64)}, []int{0}, numbered, 5},
		{"133 keys spread over 20 000 (span floor)", []*Vector{ints(subset...)}, []int{0}, unique, 133},
		{"133 keys spread over 20 000 000", []*Vector{ints(spread...)}, []int{0}, numbered, 133},
		{"float64", []*Vector{floats}, []int{0}, numbered, 6},
		{"bool", []*Vector{bools}, []int{0}, numbered, 2},
		{"strings", []*Vector{strs}, []int{0}, numbered, 26},
		{"(string, int64)", []*Vector{strs, ints(sparse[:400]...)}, []int{0, 1}, numbered, 400},
		{"no rows", []*Vector{ints()}, []int{0}, unique, 0},
	} {
		x := NewKeyIndex(c.vecs, c.cols)
		layout := numbered
		switch {
		case x.key != nil && x.rowOf != nil && x.offs == nil && x.matchRows == nil && x.groups == nil:
			layout = unique
		case x.key != nil && x.rowOf == nil && x.offs != nil && x.groups == nil:
			layout = runs
		case x.key != nil || x.rowOf != nil || x.groups == nil:
			layout = "none of the three"
		}
		if layout != c.layout {
			t.Errorf("%s: laid out %s, want %s", c.name, layout, c.layout)
			continue
		}
		if x.Keys() != c.keys {
			t.Errorf("%s: %d keys, want %d", c.name, x.Keys(), c.keys)
		}
		rows := int64(c.vecs[0].Len())
		var span int64
		if c.layout != numbered && rows > 0 {
			span = int64(slices.Max(c.vecs[0].I64)-slices.Min(c.vecs[0].I64)) + 1
		}
		switch n := x.Bytes(); {
		case c.layout == unique && n != 4*span:
			t.Errorf("%s: %d bytes, want 4 per position of a span of %d", c.name, n, span)
		case c.layout == runs && n != 4*(rows+span+1):
			t.Errorf("%s: %d bytes, want 4 per row and per offset over a span of %d", c.name, n, span)
		case c.layout == numbered && n <= 4*(rows+int64(c.keys)+1):
			t.Errorf("%s: %d bytes, want its runs' and more", c.name, n)
		}
	}
}

func countDistinct(keys []int64) int {
	seen := make(map[int64]bool)
	for _, k := range keys {
		seen[k] = true
	}
	return len(seen)
}
