package storage

import "testing"

func twoColBuilder(name string) *Builder {
	return NewBuilder(name, Schema{
		{Name: name + ".id", Typ: Int64},
		{Name: name + ".v", Typ: Float64},
	})
}

func TestTableAppendVersions(t *testing.T) {
	b := twoColBuilder("t")
	for i := 0; i < 10; i++ {
		b.Int(0, int64(i))
		b.Float(1, float64(i))
	}
	t0 := b.Build(2)
	if t0.Epoch() != 0 {
		t.Fatalf("fresh table epoch = %d", t0.Epoch())
	}

	d := twoColBuilder("t")
	d.Int(0, 100)
	d.Float(1, 100)
	t1, err := t0.Append(d.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Epoch() != 1 || t1.NumRows() != 11 {
		t.Fatalf("t1 epoch=%d rows=%d", t1.Epoch(), t1.NumRows())
	}
	// Snapshot isolation: the old version is untouched.
	if t0.NumRows() != 10 || t0.Column(0).Len() != 10 {
		t.Fatalf("append mutated the old version: rows=%d", t0.NumRows())
	}
	if got := t1.Column(0).I64[10]; got != 100 {
		t.Fatalf("appended row = %d", got)
	}
	// Versions must not share a mutable backing array: writing through one
	// must not be observable through the other.
	t2, err := t1.Append(d.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 12 || t1.NumRows() != 11 {
		t.Fatal("second append broke version isolation")
	}
}

func TestTableAppendSchemaMismatch(t *testing.T) {
	a := twoColBuilder("t").Build(1)
	bad := NewBuilder("t", Schema{{Name: "t.id", Typ: Int64}}).Build(1)
	if _, err := a.Append(bad); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestCatalogAppend(t *testing.T) {
	cat := NewCatalog()
	b := twoColBuilder("t")
	b.Int(0, 1)
	b.Float(1, 1)
	cat.Register(b.Build(1))

	d := twoColBuilder("t")
	d.Int(0, 2)
	d.Float(1, 2)
	nt, err := cat.Append("t", d.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	if nt.Epoch() != 1 || nt.NumRows() != 2 {
		t.Fatalf("epoch=%d rows=%d", nt.Epoch(), nt.NumRows())
	}
	cur, err := cat.Table("t")
	if err != nil || cur != nt {
		t.Fatal("catalog did not swap in the new version")
	}
	if _, err := cat.Append("missing", d.Build(1)); err == nil {
		t.Fatal("append to unknown table accepted")
	}
}

// TestRowWidthsFollowThePartition: a scan batch's Width is each row's payload
// over every column — whatever the scan projects — its sum is the partition's
// Bytes, and an append shares the array with every partition it did not
// touch.
func TestRowWidthsFollowThePartition(t *testing.T) {
	sch := Schema{{Name: "t.id", Typ: Int64}, {Name: "t.s", Typ: String}, {Name: "t.b", Typ: Bool}}
	fill := func(n int) *Table {
		b := NewBuilder("t", sch)
		for i := 0; i < n; i++ {
			b.Int(0, int64(i))
			b.Str(1, "xyz"[:i%4])
			b.Bool(2, i%2 == 0)
		}
		return b.Build(1)
	}
	t0 := fill(10).Repartition(4)
	var sum int64
	var b Batch
	c := t0.NewCursor(3, sch[2:], []int{2}, nil)
	for c.Seek(0, 10, nil); c.Next(&b); {
		if len(b.Vecs) != 1 || b.Vecs[0].Typ != Bool || len(b.Width) != b.Len() {
			t.Fatalf("projected batch: %d vectors, %d widths for %d rows", len(b.Vecs), len(b.Width), b.Len())
		}
		sum += b.LiveWidth()
	}
	if sum != t0.Bytes() || sum != 10*(8+16+1)+(0+1+2+3)*2+(0+1) {
		t.Fatalf("widths sum to %d, table holds %d bytes", sum, t0.Bytes())
	}
	var none []int
	c = t0.NewCursor(16, Schema{}, []int{}, nil)
	for c.Seek(0, 10, nil); c.Next(&b); {
		none = append(none, b.Rows())
	}
	if len(none) != 3 || none[0] != 4 || len(b.Vecs) != 0 {
		t.Fatalf("a scan of no columns must still count rows: batches of %v rows", none)
	}

	t1, err := t0.Append(fill(3))
	if err != nil {
		t.Fatal(err)
	}
	if &t0.parts[0].rowWidths()[0] != &t1.parts[0].rowWidths()[0] {
		t.Fatal("an untouched partition recomputed its row widths across versions")
	}
	if t1.Partitions() != 4 || len(t1.parts[2].rowWidths()) != 4 || len(t0.parts[2].rowWidths()) != 2 {
		t.Fatalf("tail widths: new %d, old %d", len(t1.parts[2].rowWidths()), len(t0.parts[2].rowWidths()))
	}
}
