package storage

import (
	"fmt"
	"slices"
	"testing"
)

// TestCursorViews reads a four-partition table (partitions of 300 rows, the
// last of 100) through a projected cursor that carries an id column: every
// batch's views are the table's own columns (Table.Column) and widths
// (Table.RowWidths) over [Start, Start+Len), a range straddling a partition
// boundary is cut there and every size rows from where it enters a
// partition, and a pruned partition yields nothing. One caller-owned batch
// serves every Next.
func TestCursorViews(t *testing.T) {
	tbl := buildTestTable(t, 1000).Repartition(300)
	if tbl.Partitions() != 4 {
		t.Fatalf("%d partitions, want 4", tbl.Partitions())
	}
	ids := &Vector{Typ: Int64}
	for i := 0; i < tbl.NumRows(); i++ {
		ids.I64 = append(ids.I64, int64(i)*7)
	}
	cols := []int{3, 0, 2}
	schema := append(Schema{tbl.Schema()[3], tbl.Schema()[0], tbl.Schema()[2]}, Col{Name: "ids", Typ: Int64})
	cases := []struct {
		lo, hi int
		keep   []bool
		want   [][2]int // each batch's [Start, end)
	}{
		{250, 700, nil, [][2]int{{250, 300}, {300, 364}, {364, 428}, {428, 492}, {492, 556}, {556, 600}, {600, 664}, {664, 700}}},
		{250, 700, []bool{true, false, true, true}, [][2]int{{250, 300}, {600, 664}, {664, 700}}},
		{310, 599, []bool{true, false, true, true}, nil},
		{-5, 40, nil, [][2]int{{0, 40}}},
		{960, 2000, []bool{false, false, false, true}, [][2]int{{960, 1000}}},
		{500, 500, nil, nil},
		{700, 600, nil, nil},
	}
	c := tbl.NewCursor(64, schema, cols, ids)
	var b Batch
	for _, tc := range cases {
		var got [][2]int
		for c.Seek(tc.lo, tc.hi, tc.keep); c.Next(&b); {
			n := b.Len()
			got = append(got, [2]int{b.Start, b.Start + n})
			if len(b.Vecs) != len(schema) || !slices.Equal(b.Schema, schema) || b.Sel != nil {
				t.Fatalf("[%d, %d): batch at %d: %d vectors under %v", tc.lo, tc.hi, b.Start, len(b.Vecs), b.Schema.Names())
			}
			if !slices.Equal(b.Width, tbl.RowWidths()[b.Start:b.Start+n]) {
				t.Fatalf("[%d, %d): batch at %d: widths are not the table's", tc.lo, tc.hi, b.Start)
			}
			for i, v := range b.Vecs {
				whole := ids
				if i < len(cols) {
					whole = tbl.Column(cols[i])
				}
				for r := 0; r < n; r++ {
					if !v.Get(r).Equal(whole.Get(b.Start + r)) {
						t.Fatalf("[%d, %d): column %d row %d: %v, table %v", tc.lo, tc.hi, i, b.Start+r, v.Get(r), whole.Get(b.Start+r))
					}
				}
			}
			if s := b.Vecs[2]; s.Dict == nil || len(s.Code) != n {
				t.Fatalf("[%d, %d): the string view lost its codes", tc.lo, tc.hi)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("Seek(%d, %d, %v): batches %v, want %v", tc.lo, tc.hi, tc.keep, got, tc.want)
		}
	}

	// Every column, nil cols: the schema is the table's, and Scan cuts each
	// partition the same way into batches of their own.
	all := tbl.NewCursor(128, nil, nil, nil)
	all.Seek(300, 600, nil)
	for k, want := range tbl.Scan(1, 128) {
		if !all.Next(&b) || b.Start != want.Start || b.Len() != want.Len() || !slices.Equal(b.Schema, tbl.Schema()) {
			t.Fatalf("batch %d of partition 1 differs from Scan's", k)
		}
	}
	if all.Next(&b) {
		t.Fatal("the cursor read past partition 1")
	}

	// A batch whose views exist is re-pointed without allocating.
	if allocs := testing.AllocsPerRun(20, func() {
		for c.Seek(0, tbl.NumRows(), nil); c.Next(&b); {
		}
	}); allocs != 0 {
		t.Fatalf("a cursor pass allocates %.0f times", allocs)
	}
}
