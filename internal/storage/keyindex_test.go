package storage

import (
	"math"
	"math/rand"
	"testing"
)

// TestKeyIndexLayout pins which layout each key shape takes — dense for one
// Int64 column under the span rule (surrogate keys, a selective filter's
// survivors under the span floor, a range straddling zero); numbered for
// every other key (Int64 keys with no locality, float64, bool, strings,
// tuples) — and that Keys counts distinct keys in both. Whether the lookups
// answer like a Go map is exec's TestJoinIndexMatchesMap and FuzzJoinIndex.
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

	for _, c := range []struct {
		name  string
		vecs  []*Vector
		cols  []int
		dense bool
		keys  int
	}{
		{"dense surrogate keys", []*Vector{ints(surrogate...)}, []int{0}, true, 5000},
		{"span 1800 over 6000 rows", []*Vector{ints(gaps...)}, []int{0}, true, countDistinct(gaps)},
		{"straddling zero", []*Vector{ints(zero...)}, []int{0}, true, 4001},
		{"random 63-bit keys", []*Vector{ints(sparse...)}, []int{0}, false, 4000},
		{"MinInt64 and MaxInt64 together", []*Vector{ints(math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64)}, []int{0}, false, 5},
		{"133 keys spread over 20 000 (span floor)", []*Vector{ints(subset...)}, []int{0}, true, 133},
		{"133 keys spread over 20 000 000", []*Vector{ints(spread...)}, []int{0}, false, 133},
		{"float64", []*Vector{floats}, []int{0}, false, 6},
		{"bool", []*Vector{bools}, []int{0}, false, 2},
		{"strings", []*Vector{strs}, []int{0}, false, 26},
		{"(string, int64)", []*Vector{strs, ints(sparse[:400]...)}, []int{0, 1}, false, 400},
		{"no rows", []*Vector{ints()}, []int{0}, true, 0},
	} {
		x := NewKeyIndex(c.vecs, c.cols)
		if dense := x.key != nil; dense != c.dense || (x.groups != nil) == dense {
			t.Errorf("%s: dense %t, numbered %t; want dense %t", c.name, dense, x.groups != nil, c.dense)
		}
		if x.Keys() != c.keys {
			t.Errorf("%s: %d keys, want %d", c.name, x.Keys(), c.keys)
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
