package storage

import (
	"fmt"
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
// index adds its version's GroupIDs — 8 bytes a row and the key columns — to
// its runs. Whether the lookups answer like a Go map is exec's
// TestJoinIndexMatchesMap and FuzzJoinIndex.
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
		x := tableOf(t, c.vecs...).KeyIndex(c.cols)
		layout := numbered
		switch {
		case x.key != nil && x.rowOf != nil && x.offs == nil && x.matchRows == nil && x.ids == nil:
			layout = unique
		case x.key != nil && x.rowOf == nil && x.offs != nil && x.ids == nil:
			layout = runs
		case x.key != nil || x.rowOf != nil || x.ids == nil:
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
		var keyBytes int64
		if x.ids != nil {
			for _, k := range x.ids.Keys {
				keyBytes += k.Bytes()
			}
		}
		switch n := x.Bytes(); {
		case c.layout == unique && n != 4*span:
			t.Errorf("%s: %d bytes, want 4 per position of a span of %d", c.name, n, span)
		case c.layout == runs && n != 4*(rows+span+1):
			t.Errorf("%s: %d bytes, want 4 per row and per offset over a span of %d", c.name, n, span)
		case c.layout == numbered && (keyBytes == 0 || n != 4*(rows+int64(c.keys)+1)+8*rows+keyBytes):
			t.Errorf("%s: %d bytes, want 4 per row and per offset, 8 per row for its ids and its %d key bytes", c.name, n, keyBytes)
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

// tableOf is a one-partition table over vecs: column i, named ci, holds
// vecs[i].
func tableOf(t testing.TB, vecs ...*Vector) *Table {
	t.Helper()
	schema := make(Schema, len(vecs))
	for i, v := range vecs {
		schema[i] = Col{Name: fmt.Sprintf("k.c%d", i), Typ: v.Typ}
	}
	tbl, err := NewTable("k", schema, vecs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestKeyIndexOneNumbering: a numbered KeyIndex is its version's own
// GroupIDs plus runs — for a string key and an (Int64, String) key, the
// index and GroupIDs hold one numbering, whichever is asked for first, so the
// version numbers its rows by the set once.
func TestKeyIndexOneNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	strs, ints := &Vector{Typ: String}, &Vector{Typ: Int64}
	for i := 0; i < 3000; i++ {
		strs.Str = append(strs.Str, fmt.Sprintf("s%03d", rng.Intn(700)))
		ints.I64 = append(ints.I64, rng.Int63())
	}
	for _, cols := range [][]int{{0}, {1, 0}} {
		tbl := tableOf(t, strs, ints)
		x := tbl.KeyIndex(cols)
		if x.ids == nil || x.ids != tbl.GroupIDs(cols) {
			t.Fatalf("cols %v: the index keeps a numbering of its own, not the version's GroupIDs", cols)
		}
		tbl = tableOf(t, strs, ints)
		g := tbl.GroupIDs(cols)
		if tbl.KeyIndex(cols).ids != g {
			t.Fatalf("cols %v: an index built after GroupIDs numbered the rows again", cols)
		}
	}
}

// TestKeyIndexOnAppendedVersion: a numbered index on a version made by
// Append — its numbering extended from the old version's — pairs probe rows
// with build rows exactly as an index on a fresh table over the same rows,
// for a sparse Int64 key, a string key and an (Int64, String) key, across
// deltas whose keys are new below, between and above the old ones, and one
// with no new key. The probe holds every key of every version and keys no
// version carries.
func TestKeyIndexOnAppendedVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := Schema{{Name: "a.i", Typ: Int64}, {Name: "a.s", Typ: String}}
	build := func(ints []int64, strs []string, n int) *Table {
		b := NewBuilder("a", schema)
		for i := 0; i < n; i++ {
			b.Int(0, ints[rng.Intn(len(ints))])
			b.Str(1, strs[rng.Intn(len(strs))])
		}
		return b.Build(2)
	}
	const m = 1_000_000_000 // keys m apart are never dense
	tbl := build([]int64{10 * m, 12 * m, 14 * m}, []string{"d", "f", "h"}, 400)
	deltas := []struct {
		ints []int64
		strs []string
	}{
		{[]int64{1 * m, 13 * m, 90 * m, 12 * m}, []string{"a", "e", "z", "f"}}, // new below, between and above
		{[]int64{10 * m, 14 * m}, []string{"d", "h"}},                          // none new
	}
	probe := &Batch{Vecs: []*Vector{{Typ: Int64}, {Typ: String}}}
	for _, k := range []int64{0, 1 * m, 10 * m, 11 * m, 12 * m, 13 * m, 14 * m, 90 * m, 91 * m} {
		for _, s := range []string{"", "a", "d", "e", "f", "g", "h", "z", "zz"} {
			probe.Vecs[0].I64 = append(probe.Vecs[0].I64, k)
			probe.Vecs[1].Str = append(probe.Vecs[1].Str, s)
		}
	}
	sets := [][]int{{0}, {1}, {0, 1}}
	for _, cols := range sets {
		tbl.KeyIndex(cols)
	}
	for v, d := range deltas {
		next, err := tbl.Append(build(d.ints, d.strs, 150))
		if err != nil {
			t.Fatal(err)
		}
		fresh := tableOf(t, next.Column(0), next.Column(1))
		for _, cols := range sets {
			if next.colIndexes(cols).prev == nil {
				t.Fatalf("delta %d cols %v: vacuous, the appended version does not start from the old numbering", v, cols)
			}
			x := next.KeyIndex(cols)
			if x.ids == nil {
				t.Fatalf("delta %d cols %v: the index is dense", v, cols)
			}
			got, want := probePairs(x, probe, cols), probePairs(fresh.KeyIndex(cols), probe, cols)
			if len(want) == 0 {
				t.Fatalf("delta %d cols %v: vacuous, no probe row matched", v, cols)
			}
			if !slices.Equal(got, want) {
				k := 0
				for k < min(len(got), len(want)) && got[k] == want[k] {
					k++
				}
				t.Fatalf("delta %d cols %v: the appended version's pairs part from a fresh table's at pair %d of %d (%d there)", v, cols, k, len(got), len(want))
			}
		}
		tbl = next
	}
}

// probePairs probes every row of b through x, three pairs of room at a time
// so that runs resume mid-way, and returns the (probe row, build row) pairs.
func probePairs(x *KeyIndex, b *Batch, cols []int) [][2]int32 {
	var out [][2]int32
	var pos, rows []int32
	for at := (ProbePos{}); ; {
		pos, rows, at = x.Probe(b, cols, nil, at, 3, pos[:0], rows[:0])
		for k := range pos {
			out = append(out, [2]int32{pos[k], rows[k]})
		}
		if len(pos) < 3 {
			return out
		}
	}
}
