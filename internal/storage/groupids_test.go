package storage

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// groupIDTable builds table "g" — an int64, a float64, a bool and a string
// column — from n random rows over few values each (the floats include
// -0.0, +0.0, ±Inf and two NaN payloads) in three partitions; with split > 0
// rows from split on arrive by Append and bring string values the first
// dictionary lacks, so the version's partitions carry two dictionaries.
func groupIDTable(t *testing.T, rng *rand.Rand, n, split int) *Table {
	t.Helper()
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)}
	schema := Schema{{Name: "g.i", Typ: Int64}, {Name: "g.f", Typ: Float64}, {Name: "g.b", Typ: Bool}, {Name: "g.s", Typ: String}}
	build := func(lo, hi, partitions int, strs []string) *Table {
		b := NewBuilder("g", schema)
		for i := lo; i < hi; i++ {
			b.Int(0, int64(rng.Intn(5))-2)
			b.Float(1, floats[rng.Intn(len(floats))])
			b.Bool(2, rng.Intn(2) == 0)
			b.Str(3, strs[rng.Intn(len(strs))])
		}
		return b.Build(partitions)
	}
	if split <= 0 {
		return build(0, n, 3, []string{"a", "b", "c"})
	}
	tbl, err := build(0, split, 3, []string{"a", "b", "c"}).Append(build(split, n, 1, []string{"c", "d", "e", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// groupText is row i's key over cols as GROUP BY identifies it: floats by
// their bits, strings by value.
func groupText(tbl *Table, cols []int, i int) string {
	var s string
	for _, c := range cols {
		v := tbl.Column(c)
		switch v.Typ {
		case Float64:
			s += fmt.Sprintf("f%x|", math.Float64bits(v.F64[i]))
		default:
			s += fmt.Sprintf("%d:%v|", v.Typ, v.Get(i))
		}
	}
	return s
}

// keyRow is group id's key values in g.
func keyRow(g *GroupIDs, id int) []Value {
	row := make([]Value, len(g.Keys))
	for k, v := range g.Keys {
		row[k] = v.Get(id)
	}
	return row
}

// compareRows is CompareKey over two key tuples, column by column.
func compareRows(a, b []Value) int {
	for k := range a {
		if c := CompareKey(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// TestGroupIDsMatchGroupBy: a version's group ids are GROUP BY's groups,
// numbered densely in key order (CompareKey), and Keys holds each group's
// values — for one column of every type and for column sets, over one
// dictionary and over two (an appended version), and for an empty table.
func TestGroupIDsMatchGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, split := range []int{0, 1500} {
		tbl := groupIDTable(t, rng, 4000, split)
		dicts := map[*Dict]bool{}
		for _, part := range tbl.parts {
			dicts[part.cols[3].Dict] = true
		}
		if split > 0 && (len(dicts) != 2 || dicts[nil]) {
			t.Fatalf("the appended string column's partitions carry %d dictionaries, want 2", len(dicts))
		}
		for _, cols := range [][]int{{0}, {1}, {2}, {3}, {3, 1}, {0, 2, 3}, {1, 1}} {
			g := tbl.GroupIDs(cols)
			want := map[string]int64{} // a group's id, from its first row
			for i := 0; i < tbl.NumRows(); i++ {
				key := groupText(tbl, cols, i)
				id, seen := want[key]
				if !seen {
					id = g.ID.I64[i]
					want[key] = id
					for k, c := range cols {
						got, row := g.Keys[k].Get(int(id)), tbl.Column(c).Get(i)
						if got.Typ != row.Typ || (row.Typ == Float64 && math.Float64bits(got.F) != math.Float64bits(row.F)) ||
							(row.Typ != Float64 && !got.Equal(row)) {
							t.Fatalf("split %d cols %v: group %d key %d is %v, row %d holds %v", split, cols, id, k, got, i, row)
						}
					}
				}
				if g.ID.I64[i] != id {
					t.Fatalf("split %d cols %v: row %d in group %d, its key's first row in %d", split, cols, i, g.ID.I64[i], id)
				}
			}
			if g.ID.Len() != tbl.NumRows() || g.Len() != len(want) {
				t.Fatalf("split %d cols %v: %d ids over %d groups, want %d over %d", split, cols, g.ID.Len(), g.Len(), tbl.NumRows(), len(want))
			}
			for id := 1; id < g.Len(); id++ {
				if a, b := keyRow(g, id-1), keyRow(g, id); compareRows(a, b) >= 0 {
					t.Fatalf("split %d cols %v: group %d's key %v does not sort before group %d's %v", split, cols, id-1, a, id, b)
				}
			}
		}
	}
	empty := NewBuilder("e", Schema{{Name: "e.s", Typ: String}}).Build(1)
	if g := empty.GroupIDs([]int{0}); g.ID.Len() != 0 || g.Len() != 0 {
		t.Fatalf("an empty table has %d ids over %d groups", g.ID.Len(), g.Len())
	}
}

// TestGroupIDsPerVersion: the numbering is cached on its version — one
// pointer per column set — and an appended version numbers its own rows:
// the old rows keep their groups, renumbered in the new version's key order
// when the delta brings keys between theirs, and the old version's
// numbering does not move.
func TestGroupIDsPerVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	old := groupIDTable(t, rng, 1000, 0)
	g := old.GroupIDs([]int{3, 0})
	before := slices.Clone(g.ID.I64)
	groups := g.Len()
	if old.GroupIDs([]int{3, 0}) != g {
		t.Fatal("a second call built a second numbering")
	}
	if old.GroupIDs([]int{0, 3}) == g {
		t.Fatal("two column orders share one numbering")
	}
	b := NewBuilder("g", old.Schema())
	for i := 0; i < 500; i++ {
		b.Int(0, int64(i%9)-4)
		b.Float(1, 0)
		b.Bool(2, false)
		b.Str(3, []string{"a", "b", "bb", "c", "d"}[i%5])
	}
	next, err := old.Append(b.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	ng := next.GroupIDs([]int{3, 0})
	if ng == g || ng.ID.Len() != 1500 || ng.Len() <= groups {
		t.Fatalf("the appended version shares the old numbering, or numbers %d rows into %d groups", ng.ID.Len(), ng.Len())
	}
	moved := false
	for i, id := range before {
		if g.ID.I64[i] != id {
			t.Fatalf("row %d: the old version's id moved from %d to %d", i, id, g.ID.I64[i])
		}
		if a, b := keyRow(g, int(id)), keyRow(ng, int(ng.ID.I64[i])); compareRows(a, b) != 0 {
			t.Fatalf("row %d: the old version groups it by %v, the new one by %v", i, a, b)
		}
		moved = moved || ng.ID.I64[i] != id
	}
	if !moved {
		t.Fatal("vacuous: the delta's keys renumbered no old row")
	}
	if g.Len() != groups || g.ID.Len() != 1000 {
		t.Fatal("the old version's numbering moved")
	}
}

// TestGroupIDsExtendedOverAppends: an appended version extends the old
// version's numbering over the delta — keys below, between and above the
// old ones, none new, or no row at all — into exactly the numbering a fresh
// build of its rows makes, over a chain of versions, for one column of
// every type and for column sets; a set the old version never numbered is
// built fresh, and the old numbering does not move.
func TestGroupIDsExtendedOverAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sets := [][]int{{0}, {1}, {2}, {3}, {3, 1}, {0, 2, 3}}
	tbl := groupIDTable(t, rng, 2000, 700)
	for _, cols := range sets[:5] {
		tbl.GroupIDs(cols)
	}
	floats := []float64{0, 1.5, -7, math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Float64frombits(0xfff8000000000003)}
	for v, c := range []struct {
		rows  int
		ints  int64 // the delta's ints are ints + 0..4
		strs  []string
		nfl   int // the delta's floats are the first nfl of floats
		bools bool
	}{
		{300, -10, []string{"0", "b", "zz"}, 7, true}, // keys below, between and above the old ones
		{250, -1, []string{"a", "c"}, 2, false},       // no new key
		{0, 0, []string{"a"}, 1, false},               // no row
		{900, 3, []string{"bb", "e", "f"}, 5, true},
	} {
		b := NewBuilder("g", tbl.Schema())
		for i := 0; i < c.rows; i++ {
			b.Int(0, c.ints+int64(rng.Intn(5)))
			b.Float(1, floats[rng.Intn(c.nfl)])
			b.Bool(2, c.bools && rng.Intn(2) == 0)
			b.Str(3, c.strs[rng.Intn(len(c.strs))])
		}
		next, err := tbl.Append(b.Build(1))
		if err != nil {
			t.Fatal(err)
		}
		fresh := next.Repartition(3)
		for k, cols := range sets {
			before := slices.Clone(tbl.GroupIDs(cols).ID.I64)
			e := next.colIndexes(cols)
			if extended := e.prev != nil; extended != (k < 5 || v > 0) {
				t.Fatalf("version %d cols %v: starts from the old numbering: %t", v+1, cols, extended)
			}
			got, want := next.GroupIDs(cols), fresh.GroupIDs(cols)
			if e.prev != nil {
				t.Fatalf("version %d cols %v: the old numbering is still held", v+1, cols)
			}
			if !slices.Equal(got.ID.I64, want.ID.I64) || got.Len() != want.Len() {
				t.Fatalf("version %d cols %v: extended ids differ from a fresh build's (%d and %d groups)", v+1, cols, got.Len(), want.Len())
			}
			for id := 0; id < got.Len(); id++ {
				if a, b := keyRow(got, id), keyRow(want, id); compareRows(a, b) != 0 {
					t.Fatalf("version %d cols %v: group %d's key is %v, a fresh build's %v", v+1, cols, id, a, b)
				}
			}
			if !slices.Equal(tbl.GroupIDs(cols).ID.I64, before) {
				t.Fatalf("version %d cols %v: the old version's numbering moved", v+1, cols)
			}
		}
		tbl = next
	}
}

// TestCompareKeyTotalOrder: floats order by IEEE-754 totalOrder, every
// other type as Less does, and two values compare equal exactly when their
// bits (strings: bytes) are.
func TestCompareKeyTotalOrder(t *testing.T) {
	nan := func(sign, payload uint64) float64 {
		return math.Float64frombits(sign<<63 | 0x7ff8000000000000 | payload)
	}
	for _, asc := range [][]Value{
		{FloatValue(nan(1, 2)), FloatValue(nan(1, 1)), FloatValue(math.Inf(-1)), FloatValue(-1.5), FloatValue(-math.SmallestNonzeroFloat64),
			FloatValue(math.Copysign(0, -1)), FloatValue(0), FloatValue(math.SmallestNonzeroFloat64), FloatValue(2), FloatValue(math.Inf(1)),
			FloatValue(nan(0, 1)), FloatValue(nan(0, 2))},
		{IntValue(math.MinInt64), IntValue(-1), IntValue(0), IntValue(7), IntValue(math.MaxInt64)},
		{StringValue(""), StringValue("A"), StringValue("a"), StringValue("ab"), StringValue("b")},
		{BoolValue(false), BoolValue(true)},
	} {
		for i, a := range asc {
			for j, b := range asc {
				if got, want := CompareKey(a, b), cmp.Compare(i, j); got != want {
					t.Fatalf("CompareKey(%v, %v) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
}

// TestGroupIDsConcurrentFirstUse: racing first calls build once and hand
// every caller the one numbering, built fresh or extended from the version
// appended to, beside the statistics and key index (run under -race by
// make race).
func TestGroupIDsConcurrentFirstUse(t *testing.T) {
	tbl := groupIDTable(t, rand.New(rand.NewSource(3)), 3000, 1000)
	tbl.GroupIDs([]int{1})
	delta := groupIDTable(t, rand.New(rand.NewSource(4)), 500, 0)
	tbl, err := tbl.Append(delta)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*GroupIDs, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				tbl.Stats()
			case 1:
				if _, err := tbl.Append(delta); err != nil {
					t.Error(err)
				}
			}
			got[i] = tbl.GroupIDs([]int{1, 3})
			tbl.KeyIndex([]int{1, 3})
			tbl.GroupIDs([]int{1})
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g != got[0] {
			t.Fatal("concurrent first calls returned different numberings")
		}
	}
}

// TestLiveWidthSum: a batch whose producer kept WidthSum is charged from it
// while it has no selection, and from its live rows' widths once one is
// attached; a lent batch comes back with no sum.
func TestLiveWidthSum(t *testing.T) {
	pool := NewVecPool()
	b := pool.GetBatch(Schema{{Name: "x", Typ: Int64}}, 4)
	b.Vecs[0].I64 = append(b.Vecs[0].I64, 1, 2, 3)
	b.Width = append(pool.GetSel(4), 10, 20, 30)
	b.WidthSum = 60
	if got := b.LiveWidth(); got != 60 {
		t.Fatalf("dense batch: LiveWidth %d, want 60", got)
	}
	b.Sel = append(pool.GetSel(4), 0, 2)
	if got := b.LiveWidth(); got != 40 {
		t.Fatalf("selected batch: LiveWidth %d, want 40", got)
	}
	pool.Release(b)
	if b := pool.GetBatch(Schema{{Name: "x", Typ: Int64}}, 4); b.WidthSum != 0 {
		t.Fatalf("a lent batch comes back with WidthSum %d", b.WidthSum)
	}
}
