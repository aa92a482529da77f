package obs

import (
	"math"
	"sync"
	"testing"
)

func testHist() *Histogram {
	h := &Histogram{}
	h.init([]float64{1, 2, 4, 8})
	return h
}

func TestHistogramObserve(t *testing.T) {
	h := testHist()
	for _, v := range []float64{0.5, 1, 1.5, 3, 9, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le-semantics: 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=4;
	// nothing in le=8; 9 and 100 overflow to +Inf.
	want := []int64{2, 1, 1, 0, 2}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-115) > 1e-9 {
		t.Errorf("Sum = %g, want 115", s.Sum)
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Observe(1) // uninitialized: ignored, no panic
	if s := h.Snapshot(); s.Count != 0 || len(s.Counts) != 0 {
		t.Fatalf("zero-value histogram snapshot = %+v, want empty", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := testHist()
	// 100 observations uniform in (0, 8]: 12 in le=1 (0..1], 13 in le=2,
	// 25 in le=4, 50 in le=8 — approximated by direct bucket fills.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.08)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-4.0) > 0.5 {
		t.Errorf("p50 = %g, want ~4.0", q)
	}
	if q := s.Quantile(0); q < 0 || q > 1 {
		t.Errorf("p0 = %g, want within the first occupied bucket", q)
	}
	if q := s.Quantile(1); math.Abs(q-8.0) > 1e-9 {
		t.Errorf("p100 = %g, want 8.0", q)
	}
	// Out-of-range q clamps rather than panicking.
	if q := s.Quantile(-1); q != s.Quantile(0) {
		t.Errorf("Quantile(-1) = %g, want Quantile(0) = %g", q, s.Quantile(0))
	}
	if q := s.Quantile(2); q != s.Quantile(1) {
		t.Errorf("Quantile(2) = %g, want Quantile(1)", q)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	h := testHist()
	h.Observe(100) // +Inf bucket only
	if q := h.Snapshot().Quantile(0.99); q != 8 {
		t.Fatalf("overflow-only p99 = %g, want clamp to highest bound 8", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile = %g, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := testHist()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != Count %d", bucketSum, s.Count)
	}
	// CAS-accumulated sum: every observation is exact in float64, so the
	// total is exact too. workers 0..7 observe w%4+0.5 each `per` times.
	var wantSum float64
	for w := 0; w < workers; w++ {
		wantSum += (float64(w%4) + 0.5) * per
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("Sum = %g, want %g", s.Sum, wantSum)
	}
}
