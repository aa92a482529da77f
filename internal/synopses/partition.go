package synopses

import (
	"fmt"
	"math"

	"github.com/tasterdb/taster/internal/storage"
)

// Per-partition mini-samples.
//
// A partitioned table carries one uniform Bernoulli mini-sample per
// partition, built with a *chunk-aligned* RNG discipline: the decision for
// global row r is draw number r mod ChunkRows of the stream
// SplitSeed(seed, r/ChunkRows). Because the draw for a row depends only on
// the row's global position — never on which partition holds it or where
// a build started — per-partition samples merged in partition order are
// bit-identical to a whole-table sample at the same seed, for *any*
// partition layout. That identity is what lets the planner answer a
// cross-partition query from merged mini-samples with exactly the estimate
// a monolithic engine would produce (and what the differential harness
// asserts).
//
// The discipline works for uniform sampling only: a uniform sampler draws
// exactly once per row, so the stream position is a pure function of the
// row index and the generator can be seeked (the SplitMix64 counter state
// advances by a fixed increment per draw). Distinct samplers draw
// data-dependently and stay whole-table.

// ChunkRows is the fixed chunk width (in global rows) of the chunk-aligned
// RNG discipline. It deliberately equals the executor's default morsel size
// but is an independent constant: changing morsel geometry must not change
// sample contents.
const ChunkRows = 4096

// skip advances the generator by n draws without consuming them: the
// SplitMix64 counter state moves by a fixed increment per draw, so seeking
// is one multiply. This is what lets a build start mid-chunk (a partition
// boundary rarely lands on a chunk boundary) and still produce the draws a
// from-the-start build would.
func (r *rng) skip(n uint64) { r.state += n * 0x9e3779b97f4a7c15 }

// BuildUniformRangeSample builds a uniform Bernoulli sample of global rows
// [lo, hi) of tbl under the chunk-aligned discipline. Seed is the
// per-table sampling seed, shared by every partition's build.
func BuildUniformRangeSample(name string, tbl *storage.Table, lo, hi int, p float64, seed uint64, stratCols []string) *Sample {
	if p <= 0 {
		p = 0.01
	}
	if p > 1 {
		p = 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi > tbl.NumRows() {
		hi = tbl.NumRows()
	}
	sb := NewSampleBuilder(name, tbl.Schema())
	var rnd *rng
	chunk := -1
	g := lo
	for _, batch := range tbl.ScanRange(lo, hi, storage.BatchSize) {
		for i := 0; i < batch.Len(); i++ {
			if c := g / ChunkRows; c != chunk {
				rnd = newRng(SplitSeed(seed, uint64(c)))
				rnd.skip(uint64(g - c*ChunkRows))
				chunk = c
			}
			if rnd.next() < p {
				sb.Append(batch.Vecs, i, 1/p)
			}
			g++
		}
	}
	s := &Sample{
		Rows:       sb.b.Build(1),
		Strategy:   "uniform",
		P:          p,
		SourceRows: hi - lo,
		Seed:       seed,
		StratCols:  append([]string(nil), stratCols...),
	}
	return s
}

// BuildPartitionSample builds the mini-sample of partition part of tbl —
// BuildUniformRangeSample over the partition's global row range.
func BuildPartitionSample(name string, tbl *storage.Table, part int, p float64, seed uint64, stratCols []string) *Sample {
	lo, hi := tbl.PartitionRange(part)
	return BuildUniformRangeSample(name, tbl, lo, hi, p, seed, stratCols)
}

// MergePartitionSamples is MergeSamples with the associativity guarantee
// spelled out: merging [a, b, c] equals merging [merge([a, b]), c] equals
// merging [a, merge([b, c])], because concatenation in part order and
// SourceRows addition are both associative. The fuzz target
// FuzzMergePartitionSamples holds this invariant over arbitrary splits.
func MergePartitionSamples(name string, parts []*Sample) (*Sample, error) {
	return MergeSamples(name, parts)
}

// estimatorTotal is the Horvitz-Thompson weighted-sum estimate a sample
// yields for SUM(col) over its source relation — the scalar the
// differential harness compares between merged per-partition samples and
// whole-table samples. Exposed for tests.
func estimatorTotal(s *Sample, col string) (float64, error) {
	ci := s.Rows.Schema().Index(col)
	wi := s.Rows.Schema().Index(WeightCol)
	if ci < 0 || wi < 0 {
		return 0, fmt.Errorf("synopses: estimatorTotal: missing column %q or weight", col)
	}
	var total float64
	for p := 0; p < s.Rows.Partitions(); p++ {
		for _, b := range s.Rows.Scan(p, storage.BatchSize) {
			for i := 0; i < b.Len(); i++ {
				total += b.Vecs[ci].Float(i) * b.Vecs[wi].Float(i)
			}
		}
	}
	if math.IsNaN(total) {
		return 0, fmt.Errorf("synopses: estimatorTotal: NaN estimate")
	}
	return total, nil
}
