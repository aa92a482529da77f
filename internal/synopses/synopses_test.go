package synopses

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tasterdb/taster/internal/storage"
)

func TestCMSketchExactWhenSparse(t *testing.T) {
	s := NewCMSketch(1024, 4, 42)
	for k := uint64(0); k < 50; k++ {
		s.Add(k, float64(k+1))
	}
	for k := uint64(0); k < 50; k++ {
		if got := s.Estimate(k); got != float64(k+1) {
			t.Fatalf("estimate(%d) = %v, want %v", k, got, k+1)
		}
	}
	if s.n != 50*51/2 {
		t.Fatalf("N = %v", s.n)
	}
}

func TestCMSketchNeverUnderestimates(t *testing.T) {
	s := NewCMSketch(64, 4, 7)
	truth := make(map[uint64]float64)
	r := newRng(99)
	for i := 0; i < 20000; i++ {
		k := uint64(r.next() * 500)
		s.Add(k, 1)
		truth[k]++
	}
	for k, f := range truth {
		if est := s.Estimate(k); est < f {
			t.Fatalf("CM underestimated key %d: est=%v true=%v", k, est, f)
		}
	}
}

func TestCMSketchErrorBound(t *testing.T) {
	// With w = ⌈e/ε⌉ the additive error should be ≤ εN w.h.p.
	eps, delta := 0.01, 0.01
	s := NewCMSketch(int(math.Ceil(math.E/eps)), int(math.Ceil(math.Log(1/delta))), 3)
	truth := make(map[uint64]float64)
	r := newRng(5)
	for i := 0; i < 100000; i++ {
		k := uint64(r.next() * 10000)
		s.Add(k, 1)
		truth[k]++
	}
	bound := eps * s.n
	violations := 0
	for k, f := range truth {
		if s.Estimate(k)-f > bound {
			violations++
		}
	}
	if frac := float64(violations) / float64(len(truth)); frac > delta {
		t.Fatalf("error bound violated for %.2f%% of keys (> δ=%v)", 100*frac, delta)
	}
}

func TestCMSketchMerge(t *testing.T) {
	a := NewCMSketch(256, 3, 11)
	b := NewCMSketch(256, 3, 11)
	whole := NewCMSketch(256, 3, 11)
	for k := uint64(0); k < 100; k++ {
		a.Add(k, 1)
		b.Add(k, 2)
		whole.Add(k, 3)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if a.Estimate(k) != whole.Estimate(k) {
			t.Fatalf("merged estimate differs at %d", k)
		}
	}
	c := NewCMSketch(128, 3, 11)
	if err := a.Merge(c); err == nil {
		t.Fatal("want geometry mismatch error")
	}
	d := NewCMSketch(256, 3, 12)
	if err := a.Merge(d); err == nil {
		t.Fatal("want seed mismatch error")
	}
}

// TestCMSketchEncodeDecode round-trips the sketch body the sketch-join record
// nests (a CM sketch has no record of its own).
func TestCMSketchEncodeDecode(t *testing.T) {
	s := NewCMSketch(32, 3, 9)
	for k := uint64(0); k < 500; k++ {
		s.Add(k, float64(k%7))
	}
	enc := s.appendPayload(nil)
	if int64(len(enc)) != s.payloadBytes() {
		t.Fatalf("encoded size %d != payloadBytes %d", len(enc), s.payloadBytes())
	}
	got, err := decodeCMPayload(storage.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 500; k++ {
		if got.Estimate(k) != s.Estimate(k) {
			t.Fatalf("decode mismatch at key %d", k)
		}
	}
	if _, err := decodeCMPayload(storage.NewReader(enc[:10])); err == nil {
		t.Fatal("want error for truncated payload")
	}
	enc[7] = 0xff // corrupt width
	if _, err := decodeCMPayload(storage.NewReader(enc)); err == nil {
		t.Fatal("want error for corrupt header")
	}
}

// Property: CM estimates dominate true counts for arbitrary key multisets.
func TestCMSketchDominanceQuick(t *testing.T) {
	f := func(keys []uint8) bool {
		s := NewCMSketch(64, 3, 1)
		truth := map[uint64]float64{}
		for _, k := range keys {
			s.Add(uint64(k), 1)
			truth[uint64(k)]++
		}
		for k, v := range truth {
			if s.Estimate(k) < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

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

func TestSketchJoinEstimates(t *testing.T) {
	// Build side: key k ∈ [0,100) appears k+1 times with value 2.0 each.
	b := storage.NewBuilder("f", storage.Schema{
		{Name: "f.k", Typ: storage.Int64},
		{Name: "f.v", Typ: storage.Float64},
	})
	for k := int64(0); k < 100; k++ {
		for i := int64(0); i <= k; i++ {
			b.Int(0, k)
			b.Float(1, 2)
		}
	}
	tbl := b.Build(2)
	sj, err := BuildSketchJoin(tbl, []string{"f.k"}, "f.v", 2719, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	probe := storage.NewBatch(storage.Schema{{Name: "p.k", Typ: storage.Int64}}, 1)
	probe.Vecs[0].Append(storage.IntValue(42))
	cnt, sum := sj.Estimate(probe.Vecs, []int{0}, 0)
	if cnt < 43 || cnt > 43*1.1 {
		t.Fatalf("count estimate = %v, want ≈43", cnt)
	}
	if sum < 86 || sum > 86*1.1 {
		t.Fatalf("sum estimate = %v, want ≈86", sum)
	}
	if sj.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
	if _, err := BuildSketchJoin(tbl, []string{"nope"}, "f.v", 272, 5, 1); err == nil {
		t.Fatal("want unknown key column error")
	}
	if _, err := BuildSketchJoin(tbl, []string{"f.k"}, "nope", 272, 5, 1); err == nil {
		t.Fatal("want unknown agg column error")
	}
}

func TestSketchJoinMerge(t *testing.T) {
	mk := func() *SketchJoin { return NewSketchJoin(272, 5, []string{"k"}, "v", 9) }
	a, b, whole := mk(), mk(), mk()
	vec := []*storage.Vector{
		{Typ: storage.Int64, I64: []int64{7}},
		{Typ: storage.Float64, F64: []float64{3}},
	}
	a.AddRow(vec, []int{0}, 1, 0, 1)
	b.AddRow(vec, []int{0}, 1, 0, 1)
	whole.AddRow(vec, []int{0}, 1, 0, 1)
	whole.AddRow(vec, []int{0}, 1, 0, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	ca, sa := a.Estimate(vec, []int{0}, 0)
	cw, sw := whole.Estimate(vec, []int{0}, 0)
	if ca != cw || sa != sw {
		t.Fatalf("merged (%v,%v) != whole (%v,%v)", ca, sa, cw, sw)
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
