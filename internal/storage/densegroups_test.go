package storage

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// groupCountsOracle is column i's group part read off groupCounts, the
// GroupIndex count every column that is not dense takes, by a loop of its
// own.
func groupCountsOracle(tbl *Table, i int) GroupStats {
	var st GroupStats
	n := tbl.NumRows()
	if n == 0 {
		return st
	}
	counts := tbl.groupCounts([]int{i})
	st.Distinct, st.MinGroup = len(counts), n
	for _, f := range counts {
		st.MinGroup = min(st.MinGroup, f)
		st.MaxGroup = max(st.MaxGroup, f)
	}
	st.Skewed = float64(st.MaxGroup) > skewRatio*float64(n)/float64(st.Distinct) && st.Distinct > 1
	return st
}

// checkColumnGroups holds tbl's column 0 to the groupCounts oracle field by
// field: its group part (ColumnGroups) and the planner's one-column readers
// of it (DistinctOf, GroupCount, MinGroupOf). It reports whether the column
// was counted by position.
func checkColumnGroups(t testing.TB, tbl *Table, where string) (dense bool) {
	t.Helper()
	want := groupCountsOracle(tbl, 0)
	_, _, dense = tbl.DenseSpan(0)
	if got := tbl.ColumnGroups(0); got != want {
		t.Fatalf("%s (by position %t): ColumnGroups %+v, groupCounts %+v", where, dense, got, want)
	}
	name := []string{tbl.schema[0].Name}
	if d := tbl.DistinctOf(name[0]); d != want.Distinct {
		t.Fatalf("%s: DistinctOf %d, want %d", where, d, want.Distinct)
	}
	if g := tbl.GroupCount(name); g != max(want.Distinct, 1) {
		t.Fatalf("%s: GroupCount %d, want %d", where, g, max(want.Distinct, 1))
	}
	if m := tbl.MinGroupOf(name); m != want.MinGroup {
		t.Fatalf("%s: MinGroupOf %d, want %d", where, m, want.MinGroup)
	}
	return dense
}

var keySchema = Schema{{Name: "r.k", Typ: Int64}}

// keyTable is a one-column Int64 table over keys in parts partitions.
func keyTable(t testing.TB, keys []int64, parts int) *Table {
	t.Helper()
	tbl, err := NewTable("r", keySchema, []*Vector{{Typ: Int64, I64: keys}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestColumnGroupsByPosition holds an Int64 column's group part, counted at
// its address key − min when Table.DenseSpan admits it, to the GroupIndex
// count field by field, over key shapes on both sides of the span rule, in
// one and several partitions, with an empty partition and over an append;
// each shape takes the counting the rule gives it.
func TestColumnGroupsByPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	draws := func(n int, key func() int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = key()
		}
		return keys
	}
	perm := func(n int, base int64) []int64 {
		keys := make([]int64, n)
		for i, p := range rng.Perm(n) {
			keys[i] = base + int64(p)
		}
		return keys
	}
	// spanOver returns rows keys spanning exactly span from base.
	spanOver := func(rows int, base, span int64) []int64 {
		keys := draws(rows, func() int64 { return base + rng.Int63n(span+1) })
		keys[0], keys[rows-1] = base, base+span
		rng.Shuffle(rows, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}
	for _, c := range []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"shuffled", perm(5000, 1), true},
		{"duplicated", draws(6000, func() int64 { return 100 + 2*rng.Int63n(900) }), true},
		{"skewed", append(draws(3000, func() int64 { return 7 }), perm(400, 0)...), true},
		{"straddling zero", perm(4001, -2000), true},
		{"span just under the floor", spanOver(300, -7, denseSpanFloor-1), true},
		{"span at the floor", spanOver(300, -7, denseSpanFloor), false},
		{"span just under 4× rows", spanOver(20000, 5, 4*20000-1), true},
		{"span 4× rows", spanOver(20000, 5, 4*20000), false},
		{"sparse 63-bit keys", draws(3000, func() int64 { return rng.Int63() - rng.Int63() }), false},
		{"MinInt64 and MaxInt64", []int64{math.MaxInt64, math.MinInt64, 0, math.MinInt64, -1, math.MaxInt64}, false},
		{"MinInt64 alone", []int64{math.MinInt64, math.MinInt64}, true},
		{"MaxInt64 near its neighbours", []int64{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64}, true},
		{"one row", []int64{42}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, parts := range []int{1, 7} {
				if dense := checkColumnGroups(t, keyTable(t, c.keys, parts), c.name); dense != c.dense {
					t.Fatalf("%d partitions: counted by position %t, want %t", parts, dense, c.dense)
				}
			}
		})
	}

	t.Run("an empty partition", func(t *testing.T) {
		tbl := TableOfParts("r", keySchema,
			[]*Vector{{Typ: Int64, I64: perm(900, -450)}},
			[]*Vector{{Typ: Int64}},
			[]*Vector{{Typ: Int64, I64: draws(500, func() int64 { return rng.Int63n(2000) })}})
		if !checkColumnGroups(t, tbl, "an empty partition") {
			t.Fatal("not counted by position")
		}
	})

	t.Run("an appended version", func(t *testing.T) {
		base := keyTable(t, perm(3000, 0), 3)
		before := checkColumnGroups(t, base, "the base version")
		// The delta repeats some keys and widens the span: dense on both
		// versions, and a sparse delta makes the next one hashed.
		dense, err := base.Append(keyTable(t, draws(1000, func() int64 { return rng.Int63n(6000) - 1000 }), 1))
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := dense.Append(keyTable(t, []int64{1 << 40}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !before || !checkColumnGroups(t, dense, "the appended version") || checkColumnGroups(t, sparse, "the sparse append") {
			t.Fatal("the versions did not take the counting their spans give")
		}
		if checkColumnGroups(t, base, "the base version again"); base.ColumnGroups(0).Distinct != 3000 {
			t.Fatal("an append changed the base version's group part")
		}
	})
}

// TestGroupStatsOfASet: GroupCount and MinGroupOf of a two-column set, asked
// in both column orders, equal a map count of the set's groups on a
// 3-partition version and on a version appended to it, and each version
// counts the set once.
func TestGroupStatsOfASet(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schema := Schema{{Name: "g.k", Typ: Int64}, {Name: "g.s", Typ: String}}
	build := func(n int, parts int) *Table {
		b := NewBuilder("g", schema)
		for range n {
			b.Int(0, 10+rng.Int63n(30))
			b.Str(1, fmt.Sprintf("s%d", rng.Intn(6)))
		}
		return b.Build(parts)
	}
	tbl := build(3000, 3)
	next, err := tbl.Append(build(700, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Table{tbl, next} {
		type key struct {
			k int64
			s string
		}
		count := make(map[key]int)
		for i := range v.NumRows() {
			count[key{v.Column(0).I64[i], v.Column(1).Str[i]}]++
		}
		smallest := slices.Min(slices.Collect(maps.Values(count)))
		for _, cols := range [][]string{{"g.k", "g.s"}, {"g.s", "g.k"}} {
			if g, m := v.GroupCount(cols), v.MinGroupOf(cols); g != len(count) || m != smallest {
				t.Fatalf("epoch %d, %v: %d groups, smallest %d; the map %d and %d", v.Epoch(), cols, g, m, len(count), smallest)
			}
		}
		if _, _, sets := v.Computed(); !slices.Equal(sets, []string{"g.k,g.s"}) {
			t.Fatalf("epoch %d: counted sets %q, want the one set", v.Epoch(), sets)
		}
	}
}

// checkKeyIndex holds tbl's KeyIndex over column 0 to a Go map from key to
// ascending rows: the pairs Probe returns for every key of the dense span
// and the one on each side of it — for a key that is not dense, every key
// and its two neighbours — alone and under a mask marked across partitions
// (Mark), and, when the index serves ranges, the rows
// Range returns for intervals drawn by rng: a unique dense index alone may
// refuse one.
func checkKeyIndex(t testing.TB, tbl *Table, where string, rng *rand.Rand) {
	t.Helper()
	rowsOf := make(map[int64][]int32)
	for i, k := range tbl.Column(0).I64 {
		rowsOf[k] = append(rowsOf[k], int32(i))
	}
	keys := slices.Sorted(maps.Keys(rowsOf))
	var probe []int64
	if lo, n, ok := tbl.DenseSpan(0); ok {
		for p := -1; p <= n; p++ {
			probe = append(probe, int64(uint64(lo)+uint64(p)))
		}
	} else {
		for _, k := range keys {
			probe = append(probe, k-1, k, k+1)
		}
	}
	x := tbl.KeyIndex([]int{0})
	var want [][2]int32
	for j, k := range probe {
		for _, r := range rowsOf[k] {
			want = append(want, [2]int32{int32(j), r})
		}
	}
	b := &Batch{Vecs: []*Vector{{Typ: Int64, I64: probe}}}
	if got := probePairs(x, b, []int{0}, nil); !slices.Equal(got, want) {
		t.Fatalf("%s: Probe paired %v, the map %v", where, got, want)
	}
	// A mask marked through a selection from a random first row over every
	// partition, and through a window, keeps exactly the pairs of the rows
	// it names.
	lo := rng.Intn(tbl.NumRows())
	keep := make([]bool, tbl.NumRows())
	var sel []int32
	for r := lo; r < tbl.NumRows(); r++ {
		if rng.Intn(2) == 0 {
			sel, keep[r] = append(sel, int32(r-lo)), true
		}
	}
	m := x.NewMask()
	x.Mark(m, lo, sel, len(sel))
	from := rng.Intn(lo + 1)
	x.Mark(m, from, nil, lo-from)
	for r := from; r < lo; r++ {
		keep[r] = true
	}
	kept := slices.DeleteFunc(slices.Clone(want), func(p [2]int32) bool { return !keep[p[1]] })
	if got := probePairs(x, b, []int{0}, m); !slices.Equal(got, kept) {
		t.Fatalf("%s: Probe under a mask of rows %d.. by selection and %d..%d paired %v, the map %v", where, lo, from, lo, got, kept)
	}
	if x.Keys() != len(keys) {
		t.Fatalf("%s: %d keys, the map %d", where, x.Keys(), len(keys))
	}
	ends := []int64{math.MinInt64, math.MaxInt64}
	for _, k := range keys {
		ends = append(ends, k-1, k, k+1)
	}
	for range 16 {
		lo, hi := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
		got, ok := x.Range(lo, hi)
		if !ok {
			if !x.UniqueDense() {
				t.Fatalf("%s: Range(%d, %d) refused by an index with runs", where, lo, hi)
			}
			continue
		}
		var want []int32
		for _, k := range keys {
			if lo <= k && k <= hi {
				want = append(want, rowsOf[k]...)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Range(%d, %d) = %v, the map %v", where, lo, hi, got, want)
		}
	}
}

// FuzzColumnGroups drives the counting by position, and the key index laid
// out from it, from arbitrary bytes: each 8-byte word is one row's key, base
// plus the word shifted right by shift mod 64, so the fuzzer reaches both
// sides of the span rule, keys unique and repeating, ranges straddling zero
// and the int64 extremes. The first split rows make a table of 1 + parts
// mod 4 partitions and the rest, when any, an appended version; each
// version's group part must equal the GroupIndex count's, and its KeyIndex
// over the column must answer as a map (checkKeyIndex).
func FuzzColumnGroups(f *testing.F) {
	words := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(words(3, 1, 3, 2, 3), uint8(0), int64(0), uint8(1), uint8(5))
	f.Add(words(1<<63, 1<<62, 0, 5, 5), uint8(48), int64(-1<<15), uint8(3), uint8(2))
	f.Add(words(0, 1<<16, 5), uint8(0), int64(math.MaxInt64-1<<16), uint8(2), uint8(1))
	f.Add(words(math.MaxUint64, 0, 7), uint8(0), int64(0), uint8(0), uint8(3))
	f.Add(words(4, 9, 2, 7, 5, 1), uint8(0), int64(-3), uint8(2), uint8(3))
	f.Add(words(6, 6, 2, 9, 2, 0, 11, 6), uint8(0), int64(0), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8, base int64, parts, split uint8) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = base + int64(binary.LittleEndian.Uint64(data[8*i:])>>(shift%64))
		}
		rng := rand.New(rand.NewSource(base ^ int64(n)))
		at := 1 + int(split)%n
		tbl := keyTable(t, keys[:at], 1+int(parts%4))
		checkColumnGroups(t, tbl, "the first version")
		checkKeyIndex(t, tbl, "the first version", rng)
		if at < n {
			grown, err := tbl.Append(keyTable(t, keys[at:], 1))
			if err != nil {
				t.Fatal(err)
			}
			checkColumnGroups(t, grown, "the appended version")
			checkKeyIndex(t, grown, "the appended version", rng)
		}
	})
}
