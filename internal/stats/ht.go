package stats

import "math"

// AggKind enumerates the aggregate functions the engine approximates.
type AggKind uint8

// Supported aggregates. MIN/MAX are computed over the sample without
// scaling (they carry no CLT confidence interval; approximating extrema by
// sampling is inherently biased, and the paper's workloads use them only on
// exact plans).
const (
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	return [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[k]
}

// Approximable reports whether the aggregate supports HT estimation.
func (k AggKind) Approximable() bool { return k == Count || k == Sum || k == Avg }

// GroupAccumulator is one aggregate's running state for one group over
// weighted sample tuples. This is the paper's §IV-B algorithm: because HT
// error decomposes per stratification/grouping key, a hash table keyed by
// group holds a running estimate and running variance, giving a linear-time,
// single-pass error computation instead of the quadratic self-join. The
// sinks keep the state as cells of a Slab, only the terms an aggregate
// reads, and assemble an accumulator at emit (Terms.Accumulator); Observe
// and Merge fold it one row at a time and are the reference the slab's
// folds are held to.
//
// Variance bookkeeping: under Poisson/HT sampling with inclusion probability
// π_i = 1/w_i, the unbiased variance estimator of the HT total is
// Σ_S (1−π_i)/π_i² · y_i² = Σ_S w_i(w_i−1)·y_i², so each sampled tuple adds
// w(w−1)y² — zero for frequency-check tuples with w = 1, which is what makes
// distinct-sampler strata "exact" until the probability branch kicks in.
type GroupAccumulator struct {
	Kind AggKind

	SumY  float64 // Σ w·y       (HT total of the aggregate column)
	SumN  float64 // Σ w         (HT total of tuple count)
	VarY  float64 // Σ w(w−1)y²  (variance estimate of SumY)
	VarN  float64 // Σ w(w−1)    (variance estimate of SumN)
	CovYN float64 // Σ w(w−1)y   (covariance of SumY and SumN)
	MinV  float64
	MaxV  float64
}

// NewGroupAccumulator returns an accumulator for the aggregate kind.
func NewGroupAccumulator(kind AggKind) *GroupAccumulator {
	return &GroupAccumulator{Kind: kind, MinV: math.Inf(1), MaxV: math.Inf(-1)}
}

// Observe folds one sample tuple with value y and HT weight w.
func (g *GroupAccumulator) Observe(y, w float64) {
	g.SumY += w * y
	g.SumN += w
	c := w * (w - 1)
	g.VarY += c * y * y
	g.VarN += c
	g.CovYN += c * y
	if y < g.MinV {
		g.MinV = y
	}
	if y > g.MaxV {
		g.MaxV = y
	}
}

// Merge combines two accumulators over disjoint sample partitions.
func (g *GroupAccumulator) Merge(o *GroupAccumulator) {
	g.SumY += o.SumY
	g.SumN += o.SumN
	g.VarY += o.VarY
	g.VarN += o.VarN
	g.CovYN += o.CovYN
	if o.MinV < g.MinV {
		g.MinV = o.MinV
	}
	if o.MaxV > g.MaxV {
		g.MaxV = o.MaxV
	}
}

// Estimate returns the point estimate of the aggregate. A group no row
// reached has SumN = 0 — weights are at least 1 — and its MIN and MAX are 0.
func (g *GroupAccumulator) Estimate() float64 {
	switch g.Kind {
	case Count:
		return g.SumN
	case Sum:
		return g.SumY
	case Avg:
		if g.SumN == 0 {
			return 0
		}
		return g.SumY / g.SumN
	case Min:
		if g.SumN == 0 {
			return 0
		}
		return g.MinV
	case Max:
		if g.SumN == 0 {
			return 0
		}
		return g.MaxV
	}
	return 0
}

// Variance returns the estimated variance of the point estimate. For AVG it
// applies the delta method to the ratio SumY/SumN:
// Var(R̂) ≈ (Var(Ŷ) − 2R̂·Cov(Ŷ,N̂) + R̂²·Var(N̂)) / N̂².
func (g *GroupAccumulator) Variance() float64 {
	switch g.Kind {
	case Count:
		return g.VarN
	case Sum:
		return g.VarY
	case Avg:
		if g.SumN == 0 {
			return 0
		}
		r := g.SumY / g.SumN
		v := (g.VarY - 2*r*g.CovYN + r*r*g.VarN) / (g.SumN * g.SumN)
		if v < 0 {
			v = 0 // numerical noise on near-exact strata
		}
		return v
	}
	return 0
}

// Interval bundles an estimate with its confidence interval.
type Interval struct {
	Estimate  float64
	HalfWidth float64 // z·σ̂; 0 for exact or non-CLT aggregates
}

// Lo returns the interval's lower bound.
func (iv Interval) Lo() float64 { return iv.Estimate - iv.HalfWidth }

// Hi returns the interval's upper bound.
func (iv Interval) Hi() float64 { return iv.Estimate + iv.HalfWidth }

// RelError returns the half-width relative to the estimate (∞ for zero
// estimates with nonzero width).
func (iv Interval) RelError() float64 {
	if iv.HalfWidth == 0 {
		return 0
	}
	if iv.Estimate == 0 {
		return math.Inf(1)
	}
	return math.Abs(iv.HalfWidth / iv.Estimate)
}

// Interval returns the CLT confidence interval at the given confidence
// level (e.g. 0.95).
func (g *GroupAccumulator) Interval(confidence float64) Interval {
	est := g.Estimate()
	if !g.Kind.Approximable() {
		return Interval{Estimate: est}
	}
	return Interval{Estimate: est, HalfWidth: ZQuantile(confidence) * math.Sqrt(g.Variance())}
}
