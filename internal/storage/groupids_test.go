package storage

import (
	"fmt"
	"math"
	"math/rand"
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

// TestGroupIDsMatchGroupBy: a version's group ids are GROUP BY's groups,
// numbered in first-seen row order, and Keys holds each group's values —
// for one column of every type and for column sets, over one dictionary
// and over two (an appended version), and for an empty table.
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
			want := map[string]int32{}
			for i := 0; i < tbl.NumRows(); i++ {
				key := groupText(tbl, cols, i)
				id, seen := want[key]
				if !seen {
					id = int32(len(want))
					want[key] = id
					for k, c := range cols {
						got, row := g.Keys[k].Get(int(id)), tbl.Column(c).Get(i)
						if got.Typ != row.Typ || (row.Typ == Float64 && math.Float64bits(got.F) != math.Float64bits(row.F)) ||
							(row.Typ != Float64 && !got.Equal(row)) {
							t.Fatalf("split %d cols %v: group %d key %d is %v, row %d holds %v", split, cols, id, k, got, i, row)
						}
					}
				}
				if g.ID[i] != id {
					t.Fatalf("split %d cols %v: row %d in group %d, want %d", split, cols, i, g.ID[i], id)
				}
			}
			if len(g.ID) != tbl.NumRows() || g.Len() != len(want) {
				t.Fatalf("split %d cols %v: %d ids over %d groups, want %d over %d", split, cols, len(g.ID), g.Len(), tbl.NumRows(), len(want))
			}
		}
	}
	empty := NewBuilder("e", Schema{{Name: "e.s", Typ: String}}).Build(1)
	if g := empty.GroupIDs([]int{0}); len(g.ID) != 0 || g.Len() != 0 {
		t.Fatalf("an empty table has %d ids over %d groups", len(g.ID), g.Len())
	}
}

// TestGroupIDsPerVersion: the numbering is cached on its version — one
// pointer per column set — and an appended version numbers its own rows:
// the old rows keep their ids (first-seen order over a prefix), and the old
// version's numbering does not move.
func TestGroupIDsPerVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	old := groupIDTable(t, rng, 1000, 0)
	g := old.GroupIDs([]int{3, 0})
	before := append([]int32(nil), g.ID...)
	groups := g.Len()
	if old.GroupIDs([]int{3, 0}) != g {
		t.Fatal("a second call built a second numbering")
	}
	if old.GroupIDs([]int{0, 3}) == g {
		t.Fatal("two column orders share one numbering")
	}
	delta := groupIDTable(t, rng, 500, 0)
	next, err := old.Append(delta)
	if err != nil {
		t.Fatal(err)
	}
	ng := next.GroupIDs([]int{3, 0})
	if ng == g || len(ng.ID) != 1500 {
		t.Fatalf("the appended version shares the old numbering or numbers %d rows", len(ng.ID))
	}
	for i, id := range before {
		if g.ID[i] != id || ng.ID[i] != id {
			t.Fatalf("row %d: old version's id %d, new version's %d, want %d", i, g.ID[i], ng.ID[i], id)
		}
	}
	if g.Len() != groups || len(g.ID) != 1000 {
		t.Fatal("the old version's numbering moved")
	}
}

// TestGroupIDsConcurrentFirstUse: racing first calls build once and hand
// every caller the one numbering (run under -race by make race-all).
func TestGroupIDsConcurrentFirstUse(t *testing.T) {
	tbl := groupIDTable(t, rand.New(rand.NewSource(3)), 3000, 1000)
	got := make([]*GroupIDs, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tbl.GroupIDs([]int{1, 3})
			tbl.KeyIndex([]int{1, 3})
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
// attached; a pooled batch comes back with no sum.
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
		t.Fatalf("a pooled batch comes back with WidthSum %d", b.WidthSum)
	}
}
