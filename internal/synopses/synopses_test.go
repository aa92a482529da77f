package synopses

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tasterdb/taster/internal/storage"
)

func sampleInput(rows int, groups int64) *storage.Table {
	b := storage.NewBuilder("src", storage.Schema{
		{Name: "src.g", Typ: storage.Int64},
		{Name: "src.v", Typ: storage.Float64},
	})
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i)%groups)
		b.Float(1, float64(i))
	}
	return b.Build(4)
}

func TestUniformSamplerHTSum(t *testing.T) {
	tbl := sampleInput(50000, 10)
	smp := NewUniformSampler(0.1, 123)
	s := BuildSampleFromTable("s", tbl, smp, nil)
	if s.Strategy != "uniform" || s.P != 0.1 {
		t.Fatalf("sample meta: %+v", s)
	}
	// HT estimate of SUM(v) should be within a few percent of the truth.
	truth := float64(50000) * float64(49999) / 2
	wi := s.Rows.Schema().Index(WeightCol)
	vi := s.Rows.Schema().Index("src.v")
	est := 0.0
	for p := 0; p < s.Rows.Partitions(); p++ {
		for _, b := range s.Rows.Scan(p, storage.BatchSize) {
			for i := 0; i < b.Len(); i++ {
				est += b.Vecs[vi].F64[i] * b.Vecs[wi].F64[i]
			}
		}
	}
	if rel := math.Abs(est-truth) / truth; rel > 0.05 {
		t.Fatalf("HT sum rel error %.3f > 5%%", rel)
	}
	// Sample size ≈ p·n.
	if n := s.Rows.NumRows(); n < 4000 || n > 6000 {
		t.Fatalf("sample rows = %d, want ≈5000", n)
	}
	if s.SourceRows != 50000 {
		t.Fatalf("SourceRows = %d", s.SourceRows)
	}
}

func TestDistinctSamplerGuaranteesGroups(t *testing.T) {
	// 100 groups; 99 tiny (5 rows), 1 huge. Uniform sampling at 1% would
	// miss most tiny groups; the distinct sampler must keep ≥min(δ,size)
	// rows of every group.
	b := storage.NewBuilder("sk", storage.Schema{
		{Name: "sk.g", Typ: storage.Int64},
		{Name: "sk.v", Typ: storage.Float64},
	})
	for g := int64(1); g < 100; g++ {
		for i := 0; i < 5; i++ {
			b.Int(0, g)
			b.Float(1, 1)
		}
	}
	for i := 0; i < 100000; i++ {
		b.Int(0, 0)
		b.Float(1, 1)
	}
	tbl := b.Build(1)
	delta := 3
	smp := NewDistinctSampler(0.01, delta, []int{0}, 7)
	s := BuildSampleFromTable("d", tbl, smp, []string{"sk.g"})
	counts := map[int64]int{}
	gi := s.Rows.Schema().Index("sk.g")
	for p := 0; p < s.Rows.Partitions(); p++ {
		for _, batch := range s.Rows.Scan(p, storage.BatchSize) {
			for i := 0; i < batch.Len(); i++ {
				counts[batch.Vecs[gi].I64[i]]++
			}
		}
	}
	for g := int64(0); g < 100; g++ {
		if counts[g] < delta {
			t.Fatalf("group %d has %d rows, want ≥ δ=%d", g, counts[g], delta)
		}
	}
	// The huge group must have been thinned: far fewer than 100000 rows.
	if counts[0] > 5000 {
		t.Fatalf("huge group kept %d rows; sampler not thinning", counts[0])
	}
}

func TestDistinctSamplerWeights(t *testing.T) {
	tbl := sampleInput(20000, 4)
	smp := NewDistinctSampler(0.05, 10, []int{0}, 3)
	s := BuildSampleFromTable("d", tbl, smp, []string{"src.g"})
	// HT COUNT estimate = Σ weights ≈ true row count.
	wi := s.Rows.Schema().Index(WeightCol)
	est := 0.0
	for p := 0; p < s.Rows.Partitions(); p++ {
		for _, b := range s.Rows.Scan(p, storage.BatchSize) {
			for i := 0; i < b.Len(); i++ {
				w := b.Vecs[wi].F64[i]
				if w != 1 && math.Abs(w-20) > 1e-9 {
					t.Fatalf("weight %v not in {1, 1/p}", w)
				}
				est += w
			}
		}
	}
	if rel := math.Abs(est-20000) / 20000; rel > 0.1 {
		t.Fatalf("HT count rel error %.3f > 10%%", rel)
	}
}

func TestPartitionDelta(t *testing.T) {
	if PartitionDelta(100, 1) != 100 {
		t.Fatal("D=1 keeps δ")
	}
	if got := PartitionDelta(100, 4); got != 50 {
		t.Fatalf("PartitionDelta(100,4) = %d, want 2·100/4 = 50", got)
	}
	if got := PartitionDelta(10, 3); got != 7 {
		t.Fatalf("PartitionDelta(10,3) = %d, want ⌈20/3⌉ = 7", got)
	}
}

func TestStratifiedSample(t *testing.T) {
	tbl := sampleInput(10000, 10) // 10 groups × 1000 rows
	s, err := StratifiedSample("st", tbl, []string{"src.g"}, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	gi := s.Rows.Schema().Index("src.g")
	wi := s.Rows.Schema().Index(WeightCol)
	for p := 0; p < s.Rows.Partitions(); p++ {
		for _, b := range s.Rows.Scan(p, storage.BatchSize) {
			for i := 0; i < b.Len(); i++ {
				counts[b.Vecs[gi].I64[i]]++
				if w := b.Vecs[wi].F64[i]; math.Abs(w-20) > 1e-9 {
					t.Fatalf("stratified weight = %v, want n_g/cap = 20", w)
				}
			}
		}
	}
	for g := int64(0); g < 10; g++ {
		if counts[g] < 20 || counts[g] > 100 {
			t.Fatalf("group %d: %d rows, want ≈cap=50", g, counts[g])
		}
	}
	if _, err := StratifiedSample("st", tbl, []string{"nope"}, 50, 7); err == nil {
		t.Fatal("want unknown column error")
	}
}

// TestSketchJoinEstimates: a probe batch's keys find their rows' exact count
// and sum through one Probe of the payload's key index — a one-column int64
// key by its word, a (string, int64) key through the id map — an absent key
// finds no row, and a
// decoded payload answers identically from its rebuilt index. Payloads the
// index cannot serve exactly are refused.
func TestSketchJoinEstimates(t *testing.T) {
	// Key k stands for k+1 build rows of value 2.0 each.
	payload := func(keys storage.Schema, withSum bool, key func(b *storage.Builder, k int)) *storage.Table {
		schema := append(keys.Clone(), storage.Col{Name: CountCol, Typ: storage.Float64})
		if withSum {
			schema = append(schema, storage.Col{Name: SumCol, Typ: storage.Float64})
		}
		b := storage.NewBuilder("sketch-join", schema)
		for k := 0; k < 100; k++ {
			key(b, k)
			b.Float(len(keys), float64(k+1))
			if withSum {
				b.Float(len(keys)+1, 2*float64(k+1))
			}
		}
		return b.Build(1)
	}
	intKey := storage.Schema{{Name: "f.k", Typ: storage.Int64}}
	tupleKey := storage.Schema{{Name: "f.s", Typ: storage.String}, {Name: "f.k", Typ: storage.Int64}}
	byInt := func(b *storage.Builder, k int) { b.Int(0, int64(3*k)) }
	byTuple := func(b *storage.Builder, k int) { b.Str(0, fmt.Sprintf("s%d", k%7)); b.Int(1, int64(3*k)) }

	probe := storage.NewBatch(storage.Schema{{Name: "p.s", Typ: storage.String}, {Name: "p.k", Typ: storage.Int64}}, 3)
	for _, row := range []struct {
		s string
		k int64
	}{{"s0", 126}, {"s1", 126}, {"s1", 127}} {
		probe.Vecs[0].Append(storage.StringValue(row.s))
		probe.Vecs[1].Append(storage.IntValue(row.k))
	}
	for _, c := range []struct {
		name    string
		keys    storage.Schema
		key     func(*storage.Builder, int)
		cols    []int
		withSum bool
		want    [3][2]float64 // (count, sum) for each probe row
	}{
		// 126 = 3·42: key 42 has 43 rows; 127 is no key.
		{"int64 key", intKey, byInt, []int{1}, true, [3][2]float64{{43, 86}, {43, 86}, {0, 0}}},
		// 42 % 7 = 0: ("s0", 126) is a key, ("s1", 126) is not.
		{"string and int64 key", tupleKey, byTuple, []int{0, 1}, true, [3][2]float64{{43, 86}, {0, 0}, {0, 0}}},
		{"counts only", intKey, byInt, []int{1}, false, [3][2]float64{{43, 0}, {43, 0}, {0, 0}}},
	} {
		sj, err := NewSketchJoin(payload(c.keys, c.withSum, c.key), "f.v")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		enc := sj.Encode()
		if int64(len(enc)) != sj.SizeBytes() {
			t.Fatalf("%s: len(Encode) = %d, SizeBytes = %d", c.name, len(enc), sj.SizeBytes())
		}
		dec, err := DecodeSketchJoin(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !slices.Equal(dec.KeySchema().Names(), c.keys.Names()) || dec.AggCol != "f.v" {
			t.Fatalf("%s: decoded keys %v agg %q", c.name, dec.KeySchema().Names(), dec.AggCol)
		}
		for _, x := range []*SketchJoin{sj, dec} {
			var got [3][2]float64
			pos, rows, _ := x.Index().Probe(probe, c.cols, storage.ProbePos{}, probe.Rows(), nil, nil)
			for k, j := range pos {
				got[j][0], got[j][1] = x.Row(rows[k])
			}
			if got != c.want {
				t.Fatalf("%s: (count, sum) per probe row = %v, want %v", c.name, got, c.want)
			}
		}
	}

	dup := payload(intKey, true, func(b *storage.Builder, k int) { b.Int(0, int64(k/2)) })
	if _, err := NewSketchJoin(dup, "f.v"); err == nil || !strings.Contains(err.Error(), "distinct keys") {
		t.Fatalf("a payload with repeated keys: err = %v", err)
	}
	noCount := storage.NewBuilder("sketch-join", storage.Schema{{Name: "f.k", Typ: storage.Int64}, {Name: SumCol, Typ: storage.Float64}}).Build(1)
	if _, err := NewSketchJoin(noCount, "f.v"); err == nil || !strings.Contains(err.Error(), CountCol) {
		t.Fatalf("a payload without counts: err = %v", err)
	}
}

func TestScrambleIsPermutation(t *testing.T) {
	tbl := sampleInput(1000, 10)
	sc := Scramble(tbl, 5)
	if sc.NumRows() != tbl.NumRows() {
		t.Fatalf("scramble changed row count: %d", sc.NumRows())
	}
	sum := func(t2 *storage.Table) float64 {
		vi := t2.Schema().Index("src.v")
		total := 0.0
		for p := 0; p < t2.Partitions(); p++ {
			for _, b := range t2.Scan(p, storage.BatchSize) {
				for i := 0; i < b.Len(); i++ {
					total += b.Vecs[vi].F64[i]
				}
			}
		}
		return total
	}
	if sum(sc) != sum(tbl) {
		t.Fatal("scramble must preserve multiset of rows")
	}
	// Must actually move rows around.
	if sc.Column(1).F64[0] == tbl.Column(1).F64[0] &&
		sc.Column(1).F64[1] == tbl.Column(1).F64[1] &&
		sc.Column(1).F64[2] == tbl.Column(1).F64[2] {
		t.Fatal("scramble left prefix unchanged (suspicious)")
	}
}

func TestVariationalSample(t *testing.T) {
	tbl := sampleInput(20000, 10)
	s := VariationalSample("vs", Scramble(tbl, 1), 0.1, 2)
	if s.Strategy != "variational" {
		t.Fatalf("strategy = %q", s.Strategy)
	}
	si := s.Rows.Schema().Index(SubsampleCol)
	if si < 0 {
		t.Fatal("missing subsample column")
	}
	subs := map[int64]int{}
	for p := 0; p < s.Rows.Partitions(); p++ {
		for _, b := range s.Rows.Scan(p, storage.BatchSize) {
			for i := 0; i < b.Len(); i++ {
				subs[b.Vecs[si].I64[i]]++
			}
		}
	}
	// ns ≈ √2000 ≈ 45 subsamples.
	if len(subs) < 20 || len(subs) > 60 {
		t.Fatalf("subsample count = %d, want ≈45", len(subs))
	}
}

func TestRowKeyComposite(t *testing.T) {
	vecs := []*storage.Vector{
		{Typ: storage.Int64, I64: []int64{1, 1, 2}},
		{Typ: storage.String, Str: []string{"a", "b", "a"}},
	}
	k0 := RowKey(vecs, []int{0, 1}, 0, 9)
	k1 := RowKey(vecs, []int{0, 1}, 1, 9)
	k2 := RowKey(vecs, []int{0, 1}, 2, 9)
	if k0 == k1 || k0 == k2 || k1 == k2 {
		t.Fatal("composite keys must distinguish rows")
	}
	// Same logical values hash equal.
	vecs2 := []*storage.Vector{
		{Typ: storage.Int64, I64: []int64{1}},
		{Typ: storage.String, Str: []string{"a"}},
	}
	if RowKey(vecs2, []int{0, 1}, 0, 9) != k0 {
		t.Fatal("equal rows must produce equal keys")
	}
}

func TestHashValueTyped(t *testing.T) {
	ints := &storage.Vector{Typ: storage.Int64, I64: []int64{5}}
	floats := &storage.Vector{Typ: storage.Float64, F64: []float64{5}}
	bools := &storage.Vector{Typ: storage.Bool, B: []bool{true, false}}
	strs := &storage.Vector{Typ: storage.String, Str: []string{"x"}}
	if HashVectorElem(ints, 0, 1) == HashVectorElem(floats, 0, 1) {
		t.Fatal("int and float keys must hash differently")
	}
	if HashVectorElem(bools, 0, 1) == HashVectorElem(bools, 1, 1) {
		t.Fatal("bool values must hash differently")
	}
	if HashVectorElem(strs, 0, 1) == HashVectorElem(strs, 0, 2) {
		t.Fatal("seed must matter")
	}
}

// Property: sampler weights are always either 1 (frequency pass) or 1/p.
func TestSamplerWeightsQuick(t *testing.T) {
	f := func(seed uint16) bool {
		tbl := sampleInput(2000, 7)
		smp := NewDistinctSampler(0.2, 2, []int{0}, uint64(seed))
		s := BuildSampleFromTable("q", tbl, smp, nil)
		wi := s.Rows.Schema().Index(WeightCol)
		for p := 0; p < s.Rows.Partitions(); p++ {
			for _, b := range s.Rows.Scan(p, storage.BatchSize) {
				for i := 0; i < b.Len(); i++ {
					w := b.Vecs[wi].F64[i]
					if w != 1 && math.Abs(w-5) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
