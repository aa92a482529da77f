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
// the span floor, a range straddling zero); dense repeating (rank and runs)
// for such a column with duplicates; numbered for every other key (Int64
// keys with no locality, float64, bool, strings, tuples) — that Keys counts
// distinct keys in all three, and what Bytes reports for each: the join
// cache bounds its pinned bytes by it. The unique layout's array is pinned
// exactly; a dense repeating one holds 4 bytes a row, an offset and a
// position of its span, and no numbering; a numbered index adds its
// version's GroupIDs — 8 bytes a row and the key columns — to its runs.
// Whether the lookups answer like a Go map is exec's TestJoinIndexMatchesMap
// and FuzzJoinIndex, and this package's FuzzColumnGroups.
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
		unique    = "unique dense"
		repeating = "dense repeating"
		numbered  = "numbered"
	)
	for _, c := range []struct {
		name   string
		vecs   []*Vector
		cols   []int
		layout string
		keys   int
	}{
		{"dense surrogate keys", []*Vector{ints(surrogate...)}, []int{0}, unique, 5000},
		{"span 1800 over 6000 rows", []*Vector{ints(gaps...)}, []int{0}, repeating, countDistinct(gaps)},
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
		layout := "none of the three"
		switch {
		case x.parts != nil && x.rowOf != nil && x.offs == nil && x.matchRows == nil && x.ids == nil && x.rank == nil:
			layout = unique
		case x.parts == nil && x.rowOf == nil && x.offs != nil && x.matchRows != nil && x.ids == nil && x.rank != nil:
			layout = repeating
		case x.parts == nil && x.rowOf == nil && x.offs != nil && x.matchRows != nil && x.ids != nil && x.rank == nil:
			layout = numbered
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
		case c.layout == numbered && (keyBytes == 0 || n != 4*(rows+int64(c.keys)+1)+8*rows+keyBytes):
			t.Errorf("%s: %d bytes, want 4 per row and per offset, 8 per row for its ids and its %d key bytes", c.name, n, keyBytes)
		case c.layout == repeating && n != 4*(rows+int64(c.keys)+1+span):
			t.Errorf("%s: %d bytes, want 4 per row, per offset and per position of a span of %d", c.name, n, span)
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
// version numbers its rows by the set once. A dense repeating Int64 key is
// laid out from its counts and numbers nothing — its set's entry keeps no
// GroupIDs — and neither it nor a unique one concatenates a multi-partition
// version's column.
func TestKeyIndexOneNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	strs, ints, dense := &Vector{Typ: String}, &Vector{Typ: Int64}, &Vector{Typ: Int64}
	for i := 0; i < 3000; i++ {
		strs.Str = append(strs.Str, fmt.Sprintf("s%03d", rng.Intn(700)))
		ints.I64 = append(ints.I64, rng.Int63())
		dense.I64 = append(dense.I64, 1000+rng.Int63n(700))
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
	unique := &Vector{Typ: Int64}
	for _, p := range rng.Perm(3000) {
		unique.I64 = append(unique.I64, int64(p))
	}
	tbl, err := NewTable("k", Schema{{Name: "k.d", Typ: Int64}, {Name: "k.u", Typ: Int64}}, []*Vector{dense, unique}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl.colsView = nil // NewTable's columns double as the view; forget them
	if x := tbl.KeyIndex([]int{0}); x.rank == nil || x.ids != nil {
		t.Fatal("a dense repeating key is not laid out by its address")
	}
	if tbl.colIndexes([]int{0}).groups != nil {
		t.Fatal("a dense repeating key's index numbered the rows")
	}
	if !tbl.KeyIndex([]int{1}).UniqueDense() {
		t.Fatal("a dense unique key is not laid out by its address")
	}
	if tbl.colsView != nil {
		t.Fatal("a dense key's index concatenated the version's columns")
	}
}

// TestKeyIndexOnAppendedVersion: an index on a version made by Append pairs
// probe rows with build rows exactly as an index on a fresh table over the
// same rows — a numbered one (its numbering extended from the old
// version's) for a sparse Int64 key, a string key and an (Int64, String)
// key, and a dense repeating one (laid out anew from its counts) for a
// short-span Int64 key — across deltas whose keys are new below, between
// and above the old ones, and one with no new key. The probe holds every
// key of every version and keys no version carries.
func TestKeyIndexOnAppendedVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := Schema{{Name: "a.i", Typ: Int64}, {Name: "a.s", Typ: String}, {Name: "a.d", Typ: Int64}}
	build := func(ints []int64, strs []string, dense []int64, n int) *Table {
		b := NewBuilder("a", schema)
		for i := 0; i < n; i++ {
			b.Int(0, ints[rng.Intn(len(ints))])
			b.Str(1, strs[rng.Intn(len(strs))])
			b.Int(2, dense[rng.Intn(len(dense))])
		}
		return b.Build(2)
	}
	const m = 1_000_000_000 // keys m apart are never dense
	tbl := build([]int64{10 * m, 12 * m, 14 * m}, []string{"d", "f", "h"}, []int64{100, 105, 120, 140}, 400)
	deltas := []struct {
		ints  []int64
		strs  []string
		dense []int64
	}{
		{[]int64{1 * m, 13 * m, 90 * m, 12 * m}, []string{"a", "e", "z", "f"}, []int64{95, 110, 170, 105}}, // new below, between and above
		{[]int64{10 * m, 14 * m}, []string{"d", "h"}, []int64{100, 140}},                                   // none new
	}
	probe := &Batch{Vecs: []*Vector{{Typ: Int64}, {Typ: String}, {Typ: Int64}}}
	for _, k := range []int64{0, 1 * m, 10 * m, 11 * m, 12 * m, 13 * m, 14 * m, 90 * m, 91 * m} {
		for _, s := range []string{"", "a", "d", "e", "f", "g", "h", "z", "zz"} {
			for _, d := range []int64{0, 94, 95, 96, 100, 105, 110, 120, 140, 170, 171} {
				probe.Vecs[0].I64 = append(probe.Vecs[0].I64, k)
				probe.Vecs[1].Str = append(probe.Vecs[1].Str, s)
				probe.Vecs[2].I64 = append(probe.Vecs[2].I64, d)
			}
		}
	}
	sets := [][]int{{0}, {1}, {0, 1}, {2}}
	for _, cols := range sets {
		tbl.KeyIndex(cols)
	}
	for v, d := range deltas {
		next, err := tbl.Append(build(d.ints, d.strs, d.dense, 150))
		if err != nil {
			t.Fatal(err)
		}
		fresh := tableOf(t, next.Column(0), next.Column(1), next.Column(2))
		for _, cols := range sets {
			dense := cols[0] == 2
			if numbered := next.colIndexes(cols).prev != nil; numbered == dense {
				t.Fatalf("delta %d cols %v: the appended version starts from an old numbering %t, want %t", v, cols, numbered, !dense)
			}
			x := next.KeyIndex(cols)
			if dense && (x.rank == nil || x.ids != nil) || !dense && x.ids == nil {
				t.Fatalf("delta %d cols %v: laid out by address %t, want %t", v, cols, x.ids == nil, dense)
			}
			got, want := probePairs(x, probe, cols, nil), probePairs(fresh.KeyIndex(cols), probe, cols, nil)
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

// probePairs probes every row of b through x under mask (nil: every row),
// three pairs of room at a time so that runs resume mid-way, and returns
// the (probe row, build row) pairs.
func probePairs(x *KeyIndex, b *Batch, cols []int, mask KeyMask) [][2]int32 {
	var out [][2]int32
	var pos, rows []int32
	for at := (ProbePos{}); ; {
		pos, rows, at = x.Probe(b, cols, mask, at, 3, pos[:0], rows[:0])
		for k := range pos {
			out = append(out, [2]int32{pos[k], rows[k]})
		}
		if len(pos) < 3 {
			return out
		}
	}
}

// TestKeyMaskRows: a mask by row marked through MarkRows reads back through
// AppendRows exactly the marked rows of any window — on and off word
// boundaries, empty, one row, the whole mask — as offsets from the window's
// start, ascending, after whatever the output held; and a bitmap the pool
// recycles comes back clear, at the length asked for.
func TestKeyMaskRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 1000
	pool := NewVecPool()
	for round := 0; round < 3; round++ {
		m := pool.GetBits(n - round)
		if len(m) != (n-round+63)/64 || slices.ContainsFunc(m, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("round %d: GetBits(%d) lent %d words, not all clear", round, n-round, len(m))
		}
		marked := make([]bool, n)
		var rows []int32
		for range rng.Intn(n) {
			r := rng.Intn(n - round)
			marked[r] = true
			rows = append(rows, int32(r))
		}
		m.MarkRows(rows)
		windows := [][2]int{{0, n - round}, {0, 0}, {63, 1}, {64, 64}, {1, 127}, {130, 0}}
		for range 50 {
			lo := rng.Intn(n - round)
			windows = append(windows, [2]int{lo, rng.Intn(n - round - lo + 1)})
		}
		for _, w := range windows {
			want := []int32{-1}
			for i := w[0]; i < w[0]+w[1]; i++ {
				if marked[i] {
					want = append(want, int32(i-w[0]))
				}
			}
			if got := m.AppendRows([]int32{-1}, w[0], w[1]); !slices.Equal(got, want) {
				t.Fatalf("round %d: AppendRows over [%d, %d) = %v, want %v", round, w[0], w[0]+w[1], got, want)
			}
		}
		pool.PutBits(m)
	}
}

// TestRankedIndexRange pins the ranked layout's interval ends where a scan
// is easy to state: keys 10, 12, 12, 15 (ids 0, 1, 2) over the span 10..15.
func TestRankedIndexRange(t *testing.T) {
	x := tableOf(t, &Vector{Typ: Int64, I64: []int64{12, 15, 10, 12}}).KeyIndex([]int{0})
	if x.rank == nil {
		t.Fatal("a repeating short-span key keeps no rank")
	}
	if want := []int32{0, ^int32(1), 1, ^int32(2), ^int32(2), 2}; !slices.Equal(x.rank, want) {
		t.Fatalf("rank %v, want %v", x.rank, want)
	}
	for _, c := range []struct {
		lo, hi int64
		want   []int32
	}{
		{11, 14, []int32{0, 3}}, {12, 12, []int32{0, 3}}, {13, 14, nil}, {10, 15, []int32{2, 0, 3, 1}},
		{math.MinInt64, 10, []int32{2}}, {15, math.MaxInt64, []int32{1}}, {16, 99, nil}, {-5, 9, nil}, {14, 11, nil},
	} {
		if got, ok := x.Range(c.lo, c.hi); !ok || !slices.Equal(got, c.want) {
			t.Errorf("Range(%d, %d) = %v (ok %v), want %v", c.lo, c.hi, got, ok, c.want)
		}
	}
}
