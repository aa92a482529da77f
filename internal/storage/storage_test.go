package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{
		{Name: "t.id", Typ: Int64},
		{Name: "t.price", Typ: Float64},
		{Name: "t.name", Typ: String},
		{Name: "t.flag", Typ: Bool},
	}
}

func buildTestTable(t *testing.T, rows int) *Table {
	t.Helper()
	b := NewBuilder("t", testSchema())
	for i := 0; i < rows; i++ {
		b.AddRow(IntValue(int64(i)), FloatValue(float64(i)*1.5),
			StringValue(string(rune('a'+i%3))), BoolValue(i%2 == 0))
	}
	return b.Build(4)
}

func TestSchemaIndex(t *testing.T) {
	s := testSchema()
	if got := s.Index("t.id"); got != 0 {
		t.Fatalf("qualified lookup = %d, want 0", got)
	}
	if got := s.Index("price"); got != 1 {
		t.Fatalf("suffix lookup = %d, want 1", got)
	}
	if got := s.Index("missing"); got != -1 {
		t.Fatalf("missing lookup = %d, want -1", got)
	}
	amb := Schema{{Name: "a.x", Typ: Int64}, {Name: "b.x", Typ: Int64}}
	if got := amb.Index("x"); got != -1 {
		t.Fatalf("ambiguous lookup = %d, want -1", got)
	}
	if got := amb.Index("a.x"); got != 0 {
		t.Fatalf("qualified disambiguation = %d, want 0", got)
	}
}

func TestSchemaConcatClone(t *testing.T) {
	a := Schema{{Name: "a", Typ: Int64}}
	b := Schema{{Name: "b", Typ: String}}
	c := append(a.Clone(), b...)
	if len(c) != 2 || c[0].Name != "a" || c[1].Name != "b" || len(a) != 1 {
		t.Fatalf("concat = %v", c)
	}
	cl := c.Clone()
	cl[0].Name = "z"
	if c[0].Name != "a" {
		t.Fatal("Clone must not alias")
	}
	if !c.Equal(append(a.Clone(), b...)) || c.Equal(a) {
		t.Fatal("Equal misbehaves")
	}
}

func TestValueOrdering(t *testing.T) {
	if !IntValue(1).Less(IntValue(2)) || IntValue(2).Less(IntValue(1)) {
		t.Fatal("int ordering")
	}
	if !StringValue("a").Less(StringValue("b")) {
		t.Fatal("string ordering")
	}
	if !BoolValue(false).Less(BoolValue(true)) {
		t.Fatal("bool ordering")
	}
	if !FloatValue(1.5).Equal(FloatValue(1.5)) || IntValue(1).Equal(FloatValue(1)) {
		t.Fatal("equality must respect type")
	}
}

func TestPartitionScanRoundTrip(t *testing.T) {
	const rows = 1000
	tbl := buildTestTable(t, rows)
	if tbl.NumRows() != rows {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	seen := 0
	for p := 0; p < tbl.Partitions(); p++ {
		for _, b := range tbl.Scan(p, 128) {
			for i := 0; i < b.Len(); i++ {
				row := b.Row(i)
				id := row[0].I
				if row[1].F != float64(id)*1.5 {
					t.Fatalf("row %d: price=%v", id, row[1])
				}
				seen++
			}
		}
	}
	if seen != rows {
		t.Fatalf("scanned %d rows, want %d", seen, rows)
	}
}

func TestPartitionRangesCoverAllRows(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 100, 1001} {
		for _, partRows := range []int{0, 1, 3, 128} {
			tbl := buildTestTable(t, rows).Repartition(partRows)
			total := 0
			for p, part := range tbl.parts {
				n := part.rows
				if partRows > 0 && n > partRows {
					t.Fatalf("rows=%d partRows=%d p=%d: oversize partition of %d rows", rows, partRows, p, n)
				}
				// The rows a scan of the partition yields are the rows counted.
				scanned := 0
				for _, b := range tbl.Scan(p, 128) {
					scanned += b.Len()
				}
				if scanned != n {
					t.Fatalf("rows=%d partRows=%d p=%d: scan yields %d rows, count says %d", rows, partRows, p, scanned, n)
				}
				total += n
			}
			if total != rows {
				t.Fatalf("rows=%d partRows=%d: covered %d", rows, partRows, total)
			}
		}
	}
}

func TestColumnStats(t *testing.T) {
	tbl := buildTestTable(t, 300)
	st := tbl.Stats()
	if st.Rows != 300 {
		t.Fatalf("rows=%d", st.Rows)
	}
	id := st.Columns[0]
	if id.Distinct != 300 || id.MinGroup != 1 || id.Skewed {
		t.Fatalf("id stats = %+v", id)
	}
	if id.Min != 0 || id.Max != 299 {
		t.Fatalf("id min/max = %v/%v", id.Min, id.Max)
	}
	wantMean := 299.0 / 2
	if math.Abs(id.Mean-wantMean) > 1e-9 {
		t.Fatalf("id mean = %v, want %v", id.Mean, wantMean)
	}
	name := st.Columns[2]
	if name.Distinct != 3 || name.MinGroup != 100 {
		t.Fatalf("name stats = %+v", name)
	}
}

func TestSkewDetection(t *testing.T) {
	b := NewBuilder("s", Schema{{Name: "s.v", Typ: Int64}})
	for i := 0; i < 1000; i++ {
		b.Int(0, 1) // heavy hitter
	}
	for i := 0; i < 10; i++ {
		b.Int(0, int64(100+i))
	}
	tbl := b.Build(1)
	if !tbl.Stats().Columns[0].Skewed {
		t.Fatal("heavy-tailed column not flagged skewed")
	}
	u := buildTestTable(t, 300)
	if u.Stats().Columns[2].Skewed {
		t.Fatal("uniform column flagged skewed")
	}
}

func TestGroupCountAndMinGroup(t *testing.T) {
	tbl := buildTestTable(t, 300)
	if g := tbl.GroupCount([]string{"t.name"}); g != 3 {
		t.Fatalf("GroupCount(name) = %d", g)
	}
	if g := tbl.GroupCount([]string{"t.name", "t.flag"}); g != 6 {
		t.Fatalf("GroupCount(name,flag) = %d", g)
	}
	if g := tbl.MinGroupOf([]string{"t.name", "t.flag"}); g != 50 {
		t.Fatalf("MinGroupOf(name,flag) = %d", g)
	}
	if g := tbl.GroupCount(nil); g != 1 {
		t.Fatalf("GroupCount(nil) = %d", g)
	}
}

// TestGroupCountStringBoundaries: a multi-column group is keyed by value,
// column by column (GroupIndex), so two rows whose strings only concatenate
// alike are two groups of one row each.
func TestGroupCountStringBoundaries(t *testing.T) {
	b := NewBuilder("t", Schema{{Name: "t.a", Typ: String}, {Name: "t.b", Typ: String}})
	b.Str(0, "a\xff\x02b")
	b.Str(1, "c")
	b.Str(0, "a")
	b.Str(1, "b\xff\x02c")
	tbl := b.Build(1)
	cols := []string{"t.a", "t.b"}
	if g := tbl.GroupCount(cols); g != 2 {
		t.Fatalf("GroupCount = %d, want 2", g)
	}
	if g := tbl.MinGroupOf(cols); g != 1 {
		t.Fatalf("MinGroupOf = %d, want 1", g)
	}
}

func TestVectorGatherSlice(t *testing.T) {
	v := NewVector(Int64, 0)
	for i := int64(0); i < 10; i++ {
		v.I64 = append(v.I64, i)
	}
	g := NewVector(Int64, 3)
	g.AppendGather(v, []int32{9, 0, 5})
	if g.I64[0] != 9 || g.I64[1] != 0 || g.I64[2] != 5 {
		t.Fatalf("gather = %v", g.I64)
	}
	s := v.Slice(2, 5)
	if s.Len() != 3 || s.I64[0] != 2 {
		t.Fatalf("slice = %v", s.I64)
	}
}

func TestBatchGather(t *testing.T) {
	tbl := buildTestTable(t, 10)
	b := tbl.Scan(0, 100)[0]
	g := NewBatch(b.Schema, 2)
	for c, v := range b.Vecs {
		g.Vecs[c].AppendGather(v, []int32{2, 0})
	}
	if g.Len() != 2 || g.Row(0)[0].I != 2 || g.Row(1)[0].I != 0 {
		t.Fatalf("batch gather wrong: %v", g.Row(0))
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable("x", Schema{{Name: "a", Typ: Int64}}, nil, 1); err == nil {
		t.Fatal("want error for missing columns")
	}
	bad := []*Vector{NewVector(Float64, 0)}
	if _, err := NewTable("x", Schema{{Name: "a", Typ: Int64}}, bad, 1); err == nil {
		t.Fatal("want error for type mismatch")
	}
	ragged := []*Vector{{Typ: Int64, I64: []int64{1, 2}}, {Typ: Int64, I64: []int64{1}}}
	if _, err := NewTable("x", Schema{{Name: "a", Typ: Int64}, {Name: "b", Typ: Int64}}, ragged, 1); err == nil {
		t.Fatal("want error for ragged columns")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := buildTestTable(t, 10)
	c.Register(tbl)
	got, err := c.Table("t")
	if err != nil || got != tbl {
		t.Fatalf("Table: %v %v", got, err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("want error for unknown table")
	}
	if c.TotalBytes() != tbl.Bytes() {
		t.Fatal("TotalBytes mismatch")
	}
	if len(c.Names()) != 1 {
		t.Fatal("Names")
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultCostModel()
	if m.ScanSeconds(1<<30) <= m.ScanSeconds(1<<20) {
		t.Fatal("scan cost must grow with bytes")
	}
	if m.ScanSeconds(0) != m.SeekSeconds {
		t.Fatal("empty scan should cost one seek")
	}
	if m.WriteSeconds(1<<20) <= 0 || m.CPUSeconds(1000) <= 0 || m.ShuffleSeconds(1<<20) <= 0 {
		t.Fatal("non-zero work must have non-zero cost")
	}
	if m.CPUSeconds(0) != 0 || m.WriteSeconds(0) != 0 {
		t.Fatal("zero work must be free")
	}
}

// Property: Vector append/get round-trips arbitrary int64 payloads.
func TestVectorRoundTripQuick(t *testing.T) {
	f := func(vals []int64) bool {
		v := NewVector(Int64, len(vals))
		for _, x := range vals {
			v.Append(IntValue(x))
		}
		if v.Len() != len(vals) {
			return false
		}
		for i, x := range vals {
			if v.Get(i).I != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: partition ranges always tile [0, rows) for any (rows, parts).
func TestPartitionTilingQuick(t *testing.T) {
	f := func(rows uint16, parts uint8) bool {
		p := int(parts)%16 + 1
		b := NewBuilder("q", Schema{{Name: "q.v", Typ: Int64}})
		n := int(rows) % 4096
		for i := 0; i < n; i++ {
			b.Int(0, int64(i))
		}
		tbl := b.Build(p)
		covered := 0
		for _, part := range tbl.parts {
			if part.rows < 0 || part.rows > n {
				return false
			}
			covered += part.rows
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
