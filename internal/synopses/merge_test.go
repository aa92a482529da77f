package synopses

import (
	"math"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

func partSample(t *testing.T, rows, sourceRows int) *Sample {
	t.Helper()
	src := storage.Schema{{Name: "t.v", Typ: storage.Float64}}
	sb := NewSampleBuilder("part", src)
	vec := storage.NewVector(storage.Float64, rows)
	all := make([]int32, rows)
	weights := make([]float64, rows)
	for i := 0; i < rows; i++ {
		vec.F64 = append(vec.F64, float64(i))
		all[i], weights[i] = int32(i), 1
	}
	sb.add([]*storage.Vector{vec}, all, weights)
	s := sb.Build(NewUniformSampler(0.5, 1), 1)
	s.SourceRows = sourceRows
	return s
}

func TestMergeSamplesValidatesSourceRows(t *testing.T) {
	good := partSample(t, 2, 10)

	if _, err := MergeSamples("m", []*Sample{good, partSample(t, 2, -1)}); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative SourceRows accepted: %v", err)
	}
	if _, err := MergeSamples("m", []*Sample{good, partSample(t, 2, 0)}); err == nil ||
		!strings.Contains(err.Error(), "zero input") {
		t.Fatalf("rows-from-zero-input accepted: %v", err)
	}
	if _, err := MergeSamples("m", []*Sample{partSample(t, 2, math.MaxInt), good}); err == nil ||
		!strings.Contains(err.Error(), "overflow") {
		t.Fatalf("SourceRows overflow accepted: %v", err)
	}

	// Empty parts (zero rows from zero input) are legitimate morsel output.
	m, err := MergeSamples("m", []*Sample{good, partSample(t, 0, 0), partSample(t, 3, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if m.SourceRows != 15 || m.Rows.NumRows() != 5 {
		t.Fatalf("merged SourceRows=%d rows=%d", m.SourceRows, m.Rows.NumRows())
	}
}

// mergeFuzzRange builds rows [lo, hi) of a deterministic fact-like table:
// int key, float measure, string dimension.
func mergeFuzzRange(lo, hi int) *storage.Table {
	b := storage.NewBuilder("fz", storage.Schema{
		{Name: "fz.k", Typ: storage.Int64},
		{Name: "fz.v", Typ: storage.Float64},
		{Name: "fz.s", Typ: storage.String},
	})
	names := []string{"ae", "be", "ce", "de"}
	for i := lo; i < hi; i++ {
		b.Int(0, int64(i%97))
		b.Float(1, float64(i%13)+0.25)
		b.Str(2, names[i%len(names)])
	}
	return b.Build(1)
}

// FuzzMergeSamples holds the two properties the per-morsel merge in
// exec.PipelineOp relies on, over parts drawn by the live samplers (uniform
// or distinct, one split seed per part, as the executor seeds its morsels):
// merging is associative — [a b c] and [[a b] c] are the same bytes — and a
// SourceRows sum that would overflow int is rejected as corruption, never
// wrapped.
func FuzzMergeSamples(f *testing.F) {
	f.Add(uint16(1000), uint64(7), uint16(50), uint16(300), uint16(700), false)
	f.Add(uint16(0), uint64(1), uint16(10), uint16(0), uint16(0), true)
	f.Add(uint16(2048), uint64(99), uint16(999), uint16(4095), uint16(1), true)
	f.Add(uint16(777), uint64(3), uint16(1), uint16(776), uint16(777), false)

	f.Fuzz(func(t *testing.T, nRows uint16, seed uint64, pMille, cutA, cutB uint16, distinct bool) {
		rows := int(nRows % 2049)
		p := float64(pMille%1000+1) / 1000
		a, b := int(cutA)%(rows+1), int(cutB)%(rows+1)
		if a > b {
			a, b = b, a
		}
		cuts := []int{0, a, b, rows}
		parts := make([]*Sample, 3)
		for i := range parts {
			var smp Sampler = NewUniformSampler(p, SplitSeed(seed, uint64(i)))
			if distinct {
				smp = NewDistinctSampler(p, PartitionDelta(4, len(parts)), []int{0}, SplitSeed(seed, uint64(i)))
			}
			parts[i] = BuildSampleFromTable("fz", mergeFuzzRange(cuts[i], cuts[i+1]), smp, []string{"fz.k"})
		}

		flat, err := MergeSamples("fz", parts)
		if err != nil {
			t.Fatalf("merge [a b c]: %v", err)
		}
		if flat.SourceRows != rows {
			t.Fatalf("merged SourceRows=%d, want %d", flat.SourceRows, rows)
		}
		pre, err := MergeSamples("fz", parts[:2])
		if err != nil {
			t.Fatalf("merge [a b]: %v", err)
		}
		nested, err := MergeSamples("fz", []*Sample{pre, parts[2]})
		if err != nil {
			t.Fatalf("merge [[a b] c]: %v", err)
		}
		if string(nested.Encode()) != string(flat.Encode()) {
			t.Fatalf("rows=%d cuts=(%d,%d) distinct=%v: merge is not associative", rows, a, b, distinct)
		}

		// Overflow guard: only reachable when a later part contributes rows.
		if parts[2].SourceRows > 0 {
			huge := *parts[0]
			huge.SourceRows = math.MaxInt
			if _, err := MergeSamples("fz", []*Sample{&huge, parts[2]}); err == nil {
				t.Fatal("SourceRows overflow accepted")
			}
		}
	})
}
