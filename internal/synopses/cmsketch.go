package synopses

import (
	"fmt"
	"math"

	"github.com/tasterdb/taster/internal/storage"
)

// CMSketch is a count-min sketch (Cormode & Muthukrishnan): a w×d array of
// counters with d pairwise-independent hash functions. Point queries
// overestimate by at most εN with probability ≥ 1−δ when w = ⌈e/ε⌉ and
// d = ⌈ln(1/δ)⌉, where N is the L1 norm of all frequencies (paper §II, §IV-B).
//
// Counters are float64 so the same structure serves both frequency counting
// (Add with weight 1) and the sketch-join's SUM-valued variant (Add with the
// aggregated measure); the estimate keeps the min-over-rows guarantee because
// all weights are non-negative.
type CMSketch struct {
	w, d  int
	seed  uint64
	hash  pairwise
	cells []float64 // row-major: cells[row*w + col]
	n     float64   // L1 norm of inserted weights
	// occupied counts nonzero cells, maintained incrementally on both
	// 0→nonzero and nonzero→0 transitions (the sketch-join's SUM plane takes
	// signed measures, so cells can cancel back to exact zero).
	// ExpectedErrorBound runs on the per-query serving path and must not
	// rescan all w×d cells each call.
	occupied int
}

// NewCMSketch returns a sketch of width w and depth d (each at least 1). The
// εN-at-confidence-1−δ guarantee of the type comment needs w = ⌈e/ε⌉ and
// d = ⌈ln(1/δ)⌉; the planner sizes w from the build side's distinct key count
// instead, so that point-query collisions stay rare.
func NewCMSketch(w, d int, seed uint64) *CMSketch {
	if w < 1 {
		w = 1
	}
	if d < 1 {
		d = 1
	}
	return &CMSketch{
		w: w, d: d, seed: seed,
		hash:  newPairwise(d, seed),
		cells: make([]float64, w*d),
	}
}

// Width returns the number of counters per row.
func (s *CMSketch) Width() int { return s.w }

// Seed returns the hash seed; merges require equal seeds and dimensions.
func (s *CMSketch) Seed() uint64 { return s.seed }

// Add inserts key with the given non-negative weight.
func (s *CMSketch) Add(key uint64, weight float64) {
	for r := 0; r < s.d; r++ {
		c := r*s.w + int(s.hash.at(r, key)%uint64(s.w))
		old := s.cells[c]
		s.cells[c] += weight
		if old == 0 && s.cells[c] != 0 {
			s.occupied++
		} else if old != 0 && s.cells[c] == 0 {
			s.occupied--
		}
	}
	s.n += weight
}

// Estimate returns the point estimate f̂(key) = min over rows. It never
// underestimates the true weight.
func (s *CMSketch) Estimate(key uint64) float64 {
	est := math.Inf(1)
	for r := 0; r < s.d; r++ {
		c := int(s.hash.at(r, key) % uint64(s.w))
		if v := s.cells[r*s.w+c]; v < est {
			est = v
		}
	}
	if math.IsInf(est, 1) {
		return 0
	}
	return est
}

// ExpectedErrorBound returns a load-aware expected overestimation bound for
// point queries: a point estimate is inflated only when every one of the d
// rows suffers a collision, which happens with probability ≈ fill^d (fill =
// occupied-cell fraction); the expected inflation is then ~N/w. The εN
// worst-case bound is hopelessly pessimistic for lightly loaded sketches —
// exactly the regime the planner sizes sketch-joins into.
func (s *CMSketch) ExpectedErrorBound() float64 {
	if s.occupied == 0 {
		return 0
	}
	fill := float64(s.occupied) / float64(len(s.cells))
	return s.n / float64(s.w) * math.Pow(fill, float64(s.d))
}

// Merge adds o into s cell-wise. Sketches must share geometry and seed
// (the paper merges per-node sketches pair-wise to summarize a whole RDD).
func (s *CMSketch) Merge(o *CMSketch) error {
	if s.w != o.w || s.d != o.d || s.seed != o.seed {
		return fmt.Errorf("synopses: merging incompatible CM sketches (%dx%d/%d vs %dx%d/%d)",
			s.w, s.d, s.seed, o.w, o.d, o.seed)
	}
	for i := range s.cells {
		old := s.cells[i]
		s.cells[i] += o.cells[i]
		if old == 0 && s.cells[i] != 0 {
			s.occupied++
		} else if old != 0 && s.cells[i] == 0 {
			s.occupied--
		}
	}
	s.n += o.n
	return nil
}

// payloadBytes is the serialized size of the sketch body: w, d, seed, n +
// cells.
func (s *CMSketch) payloadBytes() int64 { return 32 + int64(8*len(s.cells)) }

// appendPayload writes the sketch body. A CM sketch has no record of its own:
// the sketch-join codec nests two bodies inside its record.
func (s *CMSketch) appendPayload(buf []byte) []byte {
	buf = storage.AppendU64(buf, uint64(s.w))
	buf = storage.AppendU64(buf, uint64(s.d))
	buf = storage.AppendU64(buf, s.seed)
	buf = storage.AppendF64(buf, s.n)
	for _, c := range s.cells {
		buf = storage.AppendF64(buf, c)
	}
	return buf
}

// decodeCMPayload reads one sketch body from r.
func decodeCMPayload(r *storage.Reader) (*CMSketch, error) {
	w64, err := r.U64()
	if err != nil {
		return nil, err
	}
	d64, err := r.U64()
	if err != nil {
		return nil, err
	}
	seed, err := r.U64()
	if err != nil {
		return nil, err
	}
	n, err := r.F64()
	if err != nil {
		return nil, err
	}
	w, d := int(w64), int(d64)
	if w < 1 || d < 1 || w > 1<<28 || d > 1<<10 || r.Remaining() < 8*w*d {
		return nil, fmt.Errorf("synopses: corrupt CM sketch header (w=%d d=%d, %d payload bytes)", w, d, r.Remaining())
	}
	s := NewCMSketch(w, d, seed)
	s.n = n
	for i := range s.cells {
		v, err := r.F64()
		if err != nil {
			return nil, err
		}
		s.cells[i] = v
		if v != 0 {
			s.occupied++
		}
	}
	return s, nil
}
