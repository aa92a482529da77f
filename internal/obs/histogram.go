package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with atomic bucket counters: cheap
// enough for per-query observation under concurrent serving (one atomic add
// per Observe, no locks, no allocation) and mergeable/exportable as a
// Prometheus cumulative histogram. Bucket bounds are upper-inclusive
// (Prometheus `le` semantics); an implicit +Inf bucket catches overflow.
//
// The zero value (no buckets) ignores observations, which keeps nil-adjacent
// paths safe; NewMetrics initializes every histogram it registers.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// init installs the bucket bounds (must be sorted ascending). Called once
// at registry construction, before any Observe.
func (h *Histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]atomic.Int64, len(bounds)+1)
}

// Observe records one value. Safe for concurrent use; a no-op on a nil or
// uninitialized histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil || len(h.counts) == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le-bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy. Concurrent Observes may land
// between bucket reads; each bucket is individually consistent and the
// total is recomputed from the buckets so Count always equals their sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || len(h.counts) == 0 {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after init: shared, never copied
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state: per-bucket
// counts aligned with Bounds (Counts has one extra trailing entry, the +Inf
// bucket), the total observation count, and the running sum.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank — the standard fixed-bucket
// estimator (identical to Prometheus histogram_quantile). Observations in
// the +Inf bucket clamp to the highest finite bound. Returns 0 for an empty
// snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: no upper bound to interpolate toward.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// latencyBuckets covers query latency from 100µs to 60s in a 1-2.5-5
// progression (seconds). Fixed literals: exporter output and golden tests
// depend on the exact layout.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// batchSizeBuckets covers tuning batch sizes up to the service's maxBatch
// (256 observations per round).
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
