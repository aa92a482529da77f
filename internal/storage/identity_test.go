package storage_test

import (
	"math"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// TestStatsShareGroupByIdentity: a float column holding +0.0, -0.0 and three
// NaNs of one bit pattern is three groups of sizes 1, 1 and 3 to the
// engine's GROUP BY, and so to the statistics the planner sizes samplers
// from: DistinctOf, MinGroupOf and GroupCount — alone, and beside a constant
// column, which takes the multi-column path.
func TestStatsShareGroupByIdentity(t *testing.T) {
	nan := math.NaN()
	tbl, err := storage.NewTable("t",
		storage.Schema{{Name: "t.f", Typ: storage.Float64}, {Name: "t.c", Typ: storage.Int64}},
		[]*storage.Vector{
			{Typ: storage.Float64, F64: []float64{0, math.Copysign(0, -1), nan, nan, nan}},
			{Typ: storage.Int64, I64: []int64{7, 7, 7, 7, 7}},
		}, 2)
	if err != nil {
		t.Fatal(err)
	}
	node := &plan.Aggregate{Child: &plan.Scan{Table: tbl}, GroupBy: []string{"t.f"}, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
	op, err := exec.Compile(node, 1, exec.NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Run(op)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for i := 0; i < out.Len(); i++ {
		sizes = append(sizes, int(out.Vecs[1].F64[i]))
	}
	slices.Sort(sizes)
	if !slices.Equal(sizes, []int{1, 1, 3}) {
		t.Fatalf("GROUP BY t.f: group sizes %v, want [1 1 3]", sizes)
	}
	alone, both := []string{"t.f"}, []string{"t.f", "t.c"}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"DistinctOf(t.f)", tbl.DistinctOf("t.f"), len(sizes)},
		{"GroupCount(t.f)", tbl.GroupCount(alone), len(sizes)},
		{"GroupCount(t.f, t.c)", tbl.GroupCount(both), len(sizes)},
		{"MinGroupOf(t.f)", tbl.MinGroupOf(alone), sizes[0]},
		{"MinGroupOf(t.f, t.c)", tbl.MinGroupOf(both), sizes[0]},
		{"Stats MaxGroup of t.f", tbl.Stats().Columns[0].MaxGroup, sizes[len(sizes)-1]},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, GROUP BY says %d", c.name, c.got, c.want)
		}
	}
}

// BenchmarkTableStats times what a new table version costs the planner on
// TPC-H sf 0.1 lineitem (600 000 rows): Stats, and the three-column
// GroupCount of a (l_returnflag, l_linestatus, l_orderkey) stratification.
// Every iteration reads a fresh version — an append of no rows, which shares
// every partition and caches nothing — made outside the timer.
func BenchmarkTableStats(b *testing.B) {
	tbl, err := workload.TPCH(0.1, 1).Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	none := storage.NewBuilder("lineitem", tbl.Schema()).Build(1)
	fresh := func(b *testing.B) *storage.Table {
		b.StopTimer()
		defer b.StartTimer()
		v, err := tbl.Append(none)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	b.Run("Stats", func(b *testing.B) {
		for range b.N {
			fresh(b).Stats()
		}
	})
	cols := []string{"lineitem.l_returnflag", "lineitem.l_linestatus", "lineitem.l_orderkey"}
	b.Run("GroupCount3", func(b *testing.B) {
		for range b.N {
			fresh(b).GroupCount(cols)
		}
	})
}

// BenchmarkTableStatsAsk times a warm ask, as the planner makes one per
// term of every query on a version whose statistics are counted already:
// DistinctOf one TPC-H sf 0.01 lineitem column (One) and GroupCount of
// three (Three).
func BenchmarkTableStatsAsk(b *testing.B) {
	tbl, err := workload.TPCH(0.01, 1).Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"lineitem.l_returnflag", "lineitem.l_linestatus", "lineitem.l_orderkey"}
	b.Run("One", func(b *testing.B) {
		tbl.DistinctOf(cols[2])
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			tbl.DistinctOf(cols[2])
		}
	})
	b.Run("Three", func(b *testing.B) {
		tbl.GroupCount(cols)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			tbl.GroupCount(cols)
		}
	})
}

// BenchmarkTableZone times the zone maps of a fresh TPC-H sf 0.1 lineitem
// version (600 000 rows): vectorBounds over every column of every
// partition. Every iteration reads a repartitioned copy — new partitions,
// so no zone map is cached — made outside the timer.
func BenchmarkTableZone(b *testing.B) {
	tbl, err := workload.TPCH(0.1, 1).Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		v := tbl.Repartition(1 << 16)
		b.StartTimer()
		for p := range v.Partitions() {
			v.Zone(p)
		}
	}
}
