package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZQuantile(t *testing.T) {
	cases := []struct {
		conf, want float64
	}{
		{0.90, 1.6449},
		{0.95, 1.9600},
		{0.99, 2.5758},
	}
	for _, c := range cases {
		if got := ZQuantile(c.conf); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("ZQuantile(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
	if ZQuantile(0) != 0 {
		t.Fatal("ZQuantile(0)")
	}
	if z := ZQuantile(1); math.IsInf(z, 1) || z < 5 {
		t.Fatalf("ZQuantile(1) = %v, want large finite", z)
	}
	// Monotone in confidence.
	if ZQuantile(0.5) >= ZQuantile(0.9) {
		t.Fatal("ZQuantile must be monotone")
	}
}

func TestInverseNormalTails(t *testing.T) {
	if inverseNormalCDF(0.001) >= 0 || inverseNormalCDF(0.999) <= 0 {
		t.Fatal("tail signs wrong")
	}
	if !math.IsInf(inverseNormalCDF(0), -1) || !math.IsInf(inverseNormalCDF(1), 1) {
		t.Fatal("boundary values")
	}
	// Symmetry: Φ⁻¹(p) = −Φ⁻¹(1−p).
	for _, p := range []float64{0.01, 0.1, 0.3} {
		if math.Abs(inverseNormalCDF(p)+inverseNormalCDF(1-p)) > 1e-8 {
			t.Fatalf("asymmetry at p=%v", p)
		}
	}
}

func TestGroupAccumulatorExactWhenWeightOne(t *testing.T) {
	g := NewGroupAccumulator(Sum)
	for i := 1; i <= 10; i++ {
		g.Observe(float64(i), 1)
	}
	if g.Estimate() != 55 {
		t.Fatalf("sum = %v", g.Estimate())
	}
	if g.Variance() != 0 {
		t.Fatalf("variance of exact data = %v, want 0", g.Variance())
	}
	iv := g.Interval(0.95)
	if iv.HalfWidth != 0 || iv.RelError() != 0 {
		t.Fatalf("interval = %+v", iv)
	}
}

func TestGroupAccumulatorHTUnbiased(t *testing.T) {
	// Simulate uniform p=0.1 sampling of 10000 values v=1..10000 many times;
	// the mean of estimates should be near the true total.
	const (
		n      = 10000
		p      = 0.1
		trials = 60
	)
	truth := float64(n) * float64(n+1) / 2
	var estSum float64
	seed := uint64(12345)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1e9) / 1e9
	}
	var relErrs []float64
	for tr := 0; tr < trials; tr++ {
		g := NewGroupAccumulator(Sum)
		for i := 1; i <= n; i++ {
			if next() < p {
				g.Observe(float64(i), 1/p)
			}
		}
		estSum += g.Estimate()
		iv := g.Interval(0.95)
		relErrs = append(relErrs, math.Abs(iv.Estimate-truth)/truth)
		if iv.HalfWidth <= 0 {
			t.Fatal("sampled data must have nonzero CI")
		}
	}
	meanEst := estSum / trials
	if rel := math.Abs(meanEst-truth) / truth; rel > 0.02 {
		t.Fatalf("HT mean estimate off by %.3f (not unbiased?)", rel)
	}
	// CLT sanity: typical relative error at p=0.1, n=10000 is well under 5%.
	bad := 0
	for _, r := range relErrs {
		if r > 0.05 {
			bad++
		}
	}
	if bad > trials/4 {
		t.Fatalf("%d/%d trials exceeded 5%% error", bad, trials)
	}
}

func TestAvgRatioEstimator(t *testing.T) {
	g := NewGroupAccumulator(Avg)
	// Weighted tuples: values 10 and 20 with weight 2 each → avg 15.
	g.Observe(10, 2)
	g.Observe(20, 2)
	if g.Estimate() != 15 {
		t.Fatalf("avg = %v", g.Estimate())
	}
	if g.Variance() < 0 {
		t.Fatal("variance must be non-negative")
	}
	empty := NewGroupAccumulator(Avg)
	if empty.Estimate() != 0 || empty.Variance() != 0 {
		t.Fatal("empty AVG must be 0")
	}
}

func TestMinMaxAggregates(t *testing.T) {
	g := NewGroupAccumulator(Min)
	g.Observe(5, 3)
	g.Observe(2, 10)
	if g.Estimate() != 2 {
		t.Fatalf("min = %v", g.Estimate())
	}
	iv := g.Interval(0.95)
	if iv.HalfWidth != 0 {
		t.Fatal("MIN carries no CLT interval")
	}
	h := NewGroupAccumulator(Max)
	h.Observe(5, 3)
	h.Observe(2, 10)
	if h.Estimate() != 5 {
		t.Fatalf("max = %v", h.Estimate())
	}
	if NewGroupAccumulator(Min).Estimate() != 0 {
		t.Fatal("empty MIN must be 0")
	}
	if Min.Approximable() || !Sum.Approximable() {
		t.Fatal("Approximable flags wrong")
	}
}

func TestAccumulatorMerge(t *testing.T) {
	a, b, whole := NewGroupAccumulator(Sum), NewGroupAccumulator(Sum), NewGroupAccumulator(Sum)
	for i := 1; i <= 20; i++ {
		w := 1.0
		if i%3 == 0 {
			w = 4
		}
		whole.Observe(float64(i), w)
		if i <= 10 {
			a.Observe(float64(i), w)
		} else {
			b.Observe(float64(i), w)
		}
	}
	a.Merge(b)
	if a.Estimate() != whole.Estimate() || a.Variance() != whole.Variance() {
		t.Fatalf("merge mismatch: est %v vs %v, var %v vs %v",
			a.Estimate(), whole.Estimate(), a.Variance(), whole.Variance())
	}
	if a.SumN != whole.SumN || a.MinV != whole.MinV || a.MaxV != whole.MaxV {
		t.Fatal("merge lost bookkeeping")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Estimate: 100, HalfWidth: 10}
	if iv.Lo() != 90 || iv.Hi() != 110 {
		t.Fatal("bounds")
	}
	if iv.RelError() != 0.1 {
		t.Fatalf("rel error = %v", iv.RelError())
	}
	z := Interval{Estimate: 0, HalfWidth: 1}
	if !math.IsInf(z.RelError(), 1) {
		t.Fatal("zero-estimate rel error must be +Inf")
	}
}

func TestAccuracySpec(t *testing.T) {
	strict := AccuracySpec{RelError: 0.05, Confidence: 0.99}
	loose := AccuracySpec{RelError: 0.10, Confidence: 0.95}
	if !strict.AtLeastAsStrict(loose) {
		t.Fatal("strict should satisfy loose")
	}
	if loose.AtLeastAsStrict(strict) {
		t.Fatal("loose must not satisfy strict")
	}
	if !loose.AtLeastAsStrict(loose) {
		t.Fatal("spec satisfies itself")
	}
	if !DefaultAccuracy.Valid() || (AccuracySpec{}).Valid() {
		t.Fatal("Valid()")
	}
}

func TestRequiredRowsPerGroup(t *testing.T) {
	k1 := RequiredRowsPerGroup(1, AccuracySpec{RelError: 0.1, Confidence: 0.95})
	// (1.96/0.1)² ≈ 384.
	if k1 < 380 || k1 > 390 {
		t.Fatalf("k = %d, want ≈384", k1)
	}
	// Tighter error → more rows.
	k2 := RequiredRowsPerGroup(1, AccuracySpec{RelError: 0.05, Confidence: 0.95})
	if k2 <= k1 {
		t.Fatal("tighter error must need more rows")
	}
	// Floor of 30.
	if RequiredRowsPerGroup(0.01, AccuracySpec{RelError: 0.5, Confidence: 0.5}) != 30 {
		t.Fatal("floor")
	}
	// Invalid spec falls back to default.
	if RequiredRowsPerGroup(1, AccuracySpec{}) != RequiredRowsPerGroup(1, DefaultAccuracy) {
		t.Fatal("invalid spec fallback")
	}
}

func TestUniformProbability(t *testing.T) {
	p, ok := UniformProbability(100, 100000)
	if !ok || p > maxUniformP {
		t.Fatalf("large groups: p=%v ok=%v", p, ok)
	}
	if p*100000 < 100 {
		t.Fatalf("p=%v cannot deliver k rows", p)
	}
	// Tiny groups: uniform infeasible.
	if _, ok := UniformProbability(100, 200); ok {
		t.Fatal("tiny groups must reject uniform")
	}
	if _, ok := UniformProbability(10, 0); ok {
		t.Fatal("zero minGroup must reject")
	}
}

// Property: the variance estimator is non-negative and scale-consistent:
// scaling all values by c scales the SUM variance by c².
func TestVarianceScalingQuick(t *testing.T) {
	f := func(vals []uint8, scale uint8) bool {
		if len(vals) == 0 {
			return true
		}
		c := float64(scale%7 + 2)
		g1 := NewGroupAccumulator(Sum)
		g2 := NewGroupAccumulator(Sum)
		for _, v := range vals {
			w := float64(v%4) + 1
			g1.Observe(float64(v), w)
			g2.Observe(float64(v)*c, w)
		}
		v1, v2 := g1.Variance(), g2.Variance()
		if v1 < 0 || v2 < 0 {
			return false
		}
		return math.Abs(v2-c*c*v1) <= 1e-6*(1+v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
