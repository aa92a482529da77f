package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// valueKey is a value's identity under GROUP BY, spelled out independently
// of the group index: its type, and its two's complement, IEEE bits, truth
// value or string.
func valueKey(v *Vector, i int) string {
	switch v.Typ {
	case Int64:
		return fmt.Sprintf("i%d", v.I64[i])
	case Float64:
		return fmt.Sprintf("f%x", math.Float64bits(v.F64[i]))
	case Bool:
		return fmt.Sprintf("b%v", v.B[i])
	default:
		return "s" + v.Str[i]
	}
}

// groupsOracle counts the rows of every combination of the columns at
// positions cols, read row by row from the whole-column views.
func groupsOracle(tbl *Table, cols []int) map[string]int {
	freq := map[string]int{}
	for r := 0; r < tbl.NumRows(); r++ {
		key := ""
		for _, c := range cols {
			k := valueKey(tbl.Column(c), r)
			key += fmt.Sprintf("%d:%s|", len(k), k)
		}
		freq[key]++
	}
	return freq
}

// statsOracle is Stats by a frequency map over groupsOracle's keys, the
// moments folded in row order over the whole column.
func statsOracle(tbl *Table) *TableStats {
	ts := &TableStats{Rows: tbl.rows, Columns: make([]ColumnStats, len(tbl.schema))}
	n := tbl.NumRows()
	if n == 0 {
		return ts
	}
	for i := range tbl.schema {
		st := &ts.Columns[i]
		freq := groupsOracle(tbl, []int{i})
		st.Distinct, st.MinGroup = len(freq), n
		for _, f := range freq {
			st.MinGroup = min(st.MinGroup, f)
			st.MaxGroup = max(st.MaxGroup, f)
		}
		st.Skewed = float64(st.MaxGroup) > skewRatio*float64(n)/float64(st.Distinct) && st.Distinct > 1
		if !tbl.schema[i].Typ.Numeric() {
			continue
		}
		var sum, sumSq float64
		st.Min, st.Max = math.Inf(1), math.Inf(-1)
		col := tbl.Column(i)
		for r := 0; r < n; r++ {
			v := col.Float(r)
			sum += v
			sumSq += v * v
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
		st.Mean = sum / float64(n)
		if st.Variance = sumSq/float64(n) - st.Mean*st.Mean; st.Variance < 0 {
			st.Variance = 0
		}
	}
	return ts
}

// sameStats is field-for-field equality with floats compared by their bits,
// so a NaN mean equals itself.
func sameStats(a, b *TableStats) bool {
	if a.Rows != b.Rows || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i, x := range a.Columns {
		y := b.Columns[i]
		for k, f := range []float64{x.Min, x.Max, x.Mean, x.Variance} {
			if math.Float64bits(f) != math.Float64bits([]float64{y.Min, y.Max, y.Mean, y.Variance}[k]) {
				return false
			}
		}
		x.Min, x.Max, x.Mean, x.Variance = 0, 0, 0, 0
		y.Min, y.Max, y.Mean, y.Variance = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// statsSchema is the statistics fixtures' schema: int, float, bool, a coded
// string column and one past MaxDictSize.
var statsSchema = Schema{
	{Name: "r.i", Typ: Int64}, {Name: "r.f", Typ: Float64}, {Name: "r.b", Typ: Bool},
	{Name: "r.s", Typ: String}, {Name: "r.u", Typ: String},
}

// statsFixtures draws seed's statistics fixtures: a multi-partition table,
// its appended version (r.s under two dictionaries), that version in one
// partition, a one-row table and an empty one. Floats mix ±0.0, two NaN
// payloads and both infinities into the values. It returns the generator
// too, for the caller's own draws.
func statsFixtures(t *testing.T, seed int64) (*rand.Rand, []*Table) {
	t.Helper()
	awkward := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000002), math.Inf(1), math.Inf(-1), 1.5, -2}
	r := rand.New(rand.NewSource(seed))
	vocab := []int{5, 300, 1 << 20}[seed%3]
	load := func(n int, prefix string) *Table {
		b := NewBuilder("r", statsSchema)
		for k := 0; k < n; k++ {
			b.Int(0, int64(r.Intn(vocab)-vocab/2))
			if r.Intn(3) == 0 {
				b.Float(1, awkward[r.Intn(len(awkward))])
			} else {
				b.Float(1, float64(r.Intn(vocab)))
			}
			b.Bool(2, r.Intn(4) == 0)
			b.Str(3, prefix+randStrings(r, 1, 30)[0])
			b.Str(4, fmt.Sprintf("u%d", r.Intn(1<<20)))
		}
		return b.Build(1)
	}
	base := load(5000+r.Intn(2000), "a").Repartition(700 + r.Intn(900))
	grown, err := base.Append(load(1500, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Column(3).Dict == nil || base.Column(4).Dict != nil {
		t.Fatal("fixture: r.s should be coded and r.u past the cap")
	}
	if first, last := grown.parts[0].cols[3], grown.parts[grown.Partitions()-1].cols[3]; first.Dict == nil || first.Dict == last.Dict {
		t.Fatal("fixture: the append should leave r.s under two dictionaries")
	}
	return r, []*Table{base, grown, grown.Repartition(0), load(1, "a"), NewBuilder("r", statsSchema).Build(1)}
}

// TestStatsMatchTheFrequencyOracle: on random multi-partition tables —
// int, float (±0.0, two NaN payloads, infinities), bool and string columns;
// strings coded, under two dictionaries after an append, and past
// MaxDictSize — Stats equals the frequency oracle field for field, and
// GroupCount and MinGroupOf over random column sets equal the oracle's
// group count and smallest group, before and after they are cached.
func TestStatsMatchTheFrequencyOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r, tables := statsFixtures(t, seed)
		for _, tbl := range tables {
			where := fmt.Sprintf("seed %d, %d rows in %d partitions", seed, tbl.NumRows(), tbl.Partitions())
			if got, want := tbl.Stats(), statsOracle(tbl); !sameStats(got, want) {
				t.Fatalf("%s: Stats %+v, oracle %+v", where, got.Columns, want.Columns)
			}
			if tbl.NumRows() == 0 {
				continue
			}
			for draw := 0; draw < 8; draw++ {
				perm := r.Perm(len(statsSchema))[:2+r.Intn(len(statsSchema)-1)]
				names := make([]string, len(perm))
				for k, c := range perm {
					names[k] = statsSchema[c].Name
				}
				freq := groupsOracle(tbl, perm)
				smallest := tbl.NumRows()
				for _, f := range freq {
					smallest = min(smallest, f)
				}
				for pass := 0; pass < 2; pass++ {
					if g, m := tbl.GroupCount(names), tbl.MinGroupOf(names); g != len(freq) || m != smallest {
						t.Fatalf("%s, %v (call %d): GroupCount %d MinGroupOf %d, oracle %d and %d", where, names, pass+1, g, m, len(freq), smallest)
					}
				}
			}
		}
	}
}
