package storage

import (
	"fmt"
	"slices"
	"testing"
)

// growSchema has a column for each way Builder fills one: the four typed
// fast paths, and a string and a float column CopyFrom fills from a table.
func growSchema() Schema {
	return Schema{
		{Name: "g.i", Typ: Int64},
		{Name: "g.f", Typ: Float64},
		{Name: "g.s", Typ: String},
		{Name: "g.b", Typ: Bool},
		{Name: "g.cs", Typ: String},
		{Name: "g.cf", Typ: Float64},
	}
}

// growSource is a one-partition table whose string column is coded: its
// Column views are the coded vectors CopyFrom copies from.
func growSource(t *testing.T, n int) *Table {
	t.Helper()
	strs := make([]string, n)
	fs := make([]float64, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("v%d", i%7)
		fs[i] = float64(i) / 4
	}
	src, err := NewTable("src", Schema{{Name: "src.s", Typ: String}, {Name: "src.f", Typ: Float64}},
		[]*Vector{{Typ: String, Str: strs}, {Typ: Float64, F64: fs}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src.Column(0).Dict == nil {
		t.Fatal("the source's string column is not coded")
	}
	return src
}

// fillGrow appends rows [lo, hi) to b through every fill path.
func fillGrow(b *Builder, src *Table, lo, hi int) {
	strs, fs := src.Column(0), src.Column(1)
	for i := lo; i < hi; i++ {
		b.Int(0, int64(i*3))
		b.Float(1, float64(i)/8)
		b.Str(2, []string{"x", "y", "z"}[i%3])
		b.Bool(3, i%2 == 0)
		b.CopyFrom(4, strs, (i*5)%src.NumRows())
		b.CopyFrom(5, fs, (i*11)%src.NumRows())
	}
}

// sameVector reports how a and b differ in type, values, codes or
// dictionary, or "" when they hold the same column. Capacity is not
// compared: nothing reads past a vector's length.
func sameVector(a, b *Vector) string {
	switch {
	case a.Typ != b.Typ:
		return fmt.Sprintf("type %s vs %s", a.Typ, b.Typ)
	case !slices.Equal(a.I64, b.I64), !slices.Equal(a.F64, b.F64), !slices.Equal(a.Str, b.Str), !slices.Equal(a.B, b.B):
		return "values differ"
	case !slices.Equal(a.Code, b.Code):
		return "codes differ"
	case (a.Dict == nil) != (b.Dict == nil):
		return "one is coded, the other not"
	case a.Dict != nil && !slices.Equal(a.Dict.vals, b.Dict.vals):
		return "dictionaries differ"
	}
	return ""
}

// TestBuilderGrow: a builder grown to its row count fills without moving a
// column, builds the table an ungrown builder builds, and Grow keeps what a
// builder already holds.
func TestBuilderGrow(t *testing.T) {
	src := growSource(t, 100)

	// Grown to n, n rows allocate nothing per row: the only allocation is
	// the coded column's code array, reserved once when its first row
	// adopts the source's dictionary — the same count at any n. Not under
	// the race detector, whose instrumentation allocates on its own.
	for _, n := range []int{256, 4096} {
		if raceEnabled {
			break
		}
		const runs = 4
		bs := make([]*Builder, runs+1) // AllocsPerRun fills one more as warm-up
		for i := range bs {
			bs[i] = NewBuilder("g", growSchema())
			bs[i].Grow(n)
		}
		k := 0
		allocs := testing.AllocsPerRun(runs, func() {
			fillGrow(bs[k], src, 0, n)
			k++
		})
		if allocs != 1 {
			t.Errorf("n=%d: filling a grown builder allocates %.1f times, want 1 (the code array)", n, allocs)
		}
	}

	// The grown builder's table equals the ungrown one's, column by column
	// and partition by partition, codes and dictionaries included.
	const n = 1000
	plain, grown := NewBuilder("g", growSchema()), NewBuilder("g", growSchema())
	grown.Grow(n)
	fillGrow(plain, src, 0, n)
	fillGrow(grown, src, 0, n)
	pt, gt := plain.Build(3), grown.Build(3)
	if pt.NumRows() != n || gt.NumRows() != n || pt.Partitions() != gt.Partitions() {
		t.Fatalf("rows %d / %d, partitions %d / %d", pt.NumRows(), gt.NumRows(), pt.Partitions(), gt.Partitions())
	}
	for c := range growSchema() {
		if d := sameVector(pt.Column(c), gt.Column(c)); d != "" {
			t.Errorf("column %d: %s", c, d)
		}
		for p := range pt.parts {
			if d := sameVector(pt.parts[p].cols[c], gt.parts[p].cols[c]); d != "" {
				t.Errorf("column %d partition %d: %s", c, p, d)
			}
		}
		if (pt.dicts[c] == nil) != (gt.dicts[c] == nil) || pt.dicts[c] != nil && !slices.Equal(pt.dicts[c].vals, gt.dicts[c].vals) {
			t.Errorf("column %d: table dictionaries differ", c)
		}
	}
	if gt.Column(4).Dict == nil {
		t.Error("the CopyFrom string column lost its codes")
	}

	// Grow after rows keeps them (a coded column stays coded under its
	// dictionary), and the rows after it land behind them.
	b := NewBuilder("g", growSchema())
	fillGrow(b, src, 0, 10)
	dict := b.cols[4].Dict
	b.Grow(50)
	for c, v := range b.cols {
		if v.Len() != 10 {
			t.Fatalf("column %d: %d rows after Grow, want 10", c, v.Len())
		}
	}
	if b.cols[4].Dict != dict || len(b.cols[4].Code) != 10 || cap(b.cols[4].Code) < 60 {
		t.Fatalf("coded column after Grow: dict kept %v, %d codes, room for %d", b.cols[4].Dict == dict, len(b.cols[4].Code), cap(b.cols[4].Code))
	}
	fillGrow(b, src, 10, n)
	if d := sameVector(b.Build(3).Column(4), pt.Column(4)); d != "" {
		t.Errorf("grown mid-fill, the coded column: %s", d)
	}
	if d := sameVector(b.cols[0], plain.cols[0]); d != "" {
		t.Errorf("grown mid-fill, the int column: %s", d)
	}

	// Grow(0) is a no-op: no column moves or changes.
	before := make([]Vector, len(b.cols))
	for c, v := range b.cols {
		before[c] = *v
	}
	b.Grow(0)
	for c, v := range b.cols {
		if cap(v.I64) != cap(before[c].I64) || cap(v.F64) != cap(before[c].F64) || cap(v.Str) != cap(before[c].Str) ||
			cap(v.B) != cap(before[c].B) || cap(v.Code) != cap(before[c].Code) || sameVector(v, &before[c]) != "" {
			t.Fatalf("column %d: Grow(0) changed the column", c)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Grow(-1) did not panic")
		}
	}()
	b.Grow(-1)
}
