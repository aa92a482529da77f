package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestLazyStatsPartsMatchTheOracle: on a fresh version of every statistics
// fixture, eight goroutines ask for each column's group part and moment
// part in their own random order while another appends to the version; each
// part equals the frequency oracle's, every caller sees the same, and Stats
// still equals the oracle, on the version and on what the append made (run
// under -race by make race).
func TestLazyStatsPartsMatchTheOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r, tables := statsFixtures(t, seed)
		for _, tbl := range tables {
			where := fmt.Sprintf("seed %d, %d rows in %d partitions", seed, tbl.NumRows(), tbl.Partitions())
			v, err := tbl.Append(NewBuilder("r", statsSchema).Build(1))
			if err != nil {
				t.Fatal(err)
			}
			want := statsOracle(v)
			ncols := len(statsSchema)
			orders := make([][]int, 8)
			for g := range orders {
				orders[g] = r.Perm(2 * ncols)
			}
			got := make([][]ColumnStats, len(orders))
			var grown *Table
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if grown, err = v.Append(tables[3]); err != nil {
					t.Error(err)
				}
			}()
			for g, order := range orders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = make([]ColumnStats, ncols)
					for _, ask := range order {
						if c := ask % ncols; ask < ncols {
							got[g][c].GroupStats = v.ColumnGroups(c)
						} else {
							got[g][c].Moments = v.ColumnMoments(c)
						}
					}
				}()
			}
			wg.Wait()
			for g := range got {
				if ts := (&TableStats{Rows: v.NumRows(), Columns: got[g]}); !sameStats(ts, want) {
					t.Fatalf("%s, goroutine %d (order %v): parts %+v, oracle %+v", where, g, orders[g], got[g], want.Columns)
				}
			}
			if !sameStats(v.Stats(), want) {
				t.Fatalf("%s: Stats %+v, oracle %+v", where, v.Stats().Columns, want.Columns)
			}
			if grown != nil && !sameStats(grown.Stats(), statsOracle(grown)) {
				t.Fatalf("%s: the raced append's Stats differ from the oracle's", where)
			}
		}
	}
}

// TestShapeCountsEachColumnSetOnce: a column set's group shape is counted
// and cached once per version whatever order its columns are named in — a
// GROUP BY's columns and a stratification set over the same columns share
// one count.
func TestShapeCountsEachColumnSetOnce(t *testing.T) {
	_, tables := statsFixtures(t, 2)
	tbl := tables[0]
	ab, ba := []string{"r.s", "r.b"}, []string{"r.b", "r.s"}
	g, m := tbl.GroupCount(ab), tbl.MinGroupOf(ab)
	if g2, m2 := tbl.GroupCount(ba), tbl.MinGroupOf(ba); g2 != g || m2 != m {
		t.Fatalf("(r.b, r.s): %d groups, smallest %d; (r.s, r.b): %d and %d", g2, m2, g, m)
	}
	if _, _, sets := tbl.Computed(); !slices.Equal(sets, []string{"r.b,r.s"}) {
		t.Fatalf("counted sets %q, want the one sorted set", sets)
	}
	if !slices.Equal(ab, []string{"r.s", "r.b"}) {
		t.Fatalf("GroupCount reordered its argument: %v", ab)
	}
}

// vectorBoundsOracle is vectorBounds row by row through Get and Value.Less.
func vectorBoundsOracle(c *Vector) (mn, mx Value, hasNaN bool) {
	n := c.Len()
	seeded := false
	for i := 0; i < n; i++ {
		v := c.Get(i)
		if v.Typ == Float64 && math.IsNaN(v.F) {
			hasNaN = true
			continue
		}
		if !seeded {
			mn, mx, seeded = v, v, true
			continue
		}
		if v.Less(mn) {
			mn = v
		}
		if mx.Less(v) {
			mx = v
		}
	}
	if !seeded && n > 0 {
		mn, mx = c.Get(0), c.Get(0)
	}
	return mn, mx, hasNaN
}

// TestVectorBoundsMatchTheReference: the typed bounds loops equal the
// row-at-a-time Get/Less loop bit for bit on random vectors of every type —
// ints to the int64 extremes; floats with NaN payloads, -0 before +0 and
// +0 before -0 (the first one seen is kept), ±Inf and all-NaN runs; coded
// strings, whole and sliced under a dictionary holding values the slice
// does not, and uncoded ones; bools — and on empty vectors.
func TestVectorBoundsMatchTheReference(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000002), math.Inf(1), math.Inf(-1), 1.5, -2, math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42}
	r := rand.New(rand.NewSource(1))
	for draw := 0; draw < 2000; draw++ {
		n := r.Intn(12)
		if draw%50 == 0 {
			n = 0
		}
		vecs := []*Vector{NewVector(Int64, n), NewVector(Float64, n), NewVector(String, n), NewVector(Bool, n)}
		allNaN := r.Intn(8) == 0
		for k := 0; k < n; k++ {
			vecs[0].I64 = append(vecs[0].I64, ints[r.Intn(len(ints))]+int64(r.Intn(3)))
			f := floats[r.Intn(len(floats))]
			if allNaN {
				f = floats[2+r.Intn(2)]
			}
			vecs[1].F64 = append(vecs[1].F64, f)
			vecs[3].B = append(vecs[3].B, r.Intn(2) == 0)
		}
		vecs[2].Str = randStrings(r, n, 6)
		coded, _ := codedColumns([]*Vector{vecs[2]})
		if n > 0 && coded[0].Dict == nil {
			t.Fatal("fixture: the string column should be coded")
		}
		// A slice keeps the whole dictionary: values it does not hold.
		lo := r.Intn(n + 1)
		vecs = append(vecs, coded[0], coded[0].Slice(lo, lo+r.Intn(n-lo+1)))
		for _, c := range vecs {
			mn, mx, nan := vectorBounds(c)
			wmn, wmx, wnan := vectorBoundsOracle(c)
			if !sameValue(mn, wmn) || !sameValue(mx, wmx) || nan != wnan {
				t.Fatalf("draw %d, %s %v: bounds [%v, %v] NaN %v, reference [%v, %v] NaN %v",
					draw, c.Typ, c, mn, mx, nan, wmn, wmx, wnan)
			}
		}
	}
}
