package stats

import "math"

// AccuracySpec is the user's "ERROR WITHIN x% AT CONFIDENCE y%" clause.
type AccuracySpec struct {
	RelError   float64 // target relative error, e.g. 0.10
	Confidence float64 // confidence level, e.g. 0.95
}

// DefaultAccuracy mirrors the paper's evaluation setting: relative error per
// group below 10%, no missing groups (confidence 95%).
var DefaultAccuracy = AccuracySpec{RelError: 0.10, Confidence: 0.95}

// AtLeastAsStrict reports whether spec a satisfies spec b, i.e. a synopsis
// built for a can serve a query demanding b (paper §IV-A: "the accuracy
// requirement of the query generating the synopsis is equal or weaker").
func (a AccuracySpec) AtLeastAsStrict(b AccuracySpec) bool {
	return a.RelError <= b.RelError+1e-12 && a.Confidence >= b.Confidence-1e-12
}

// Valid reports whether the spec is sensible.
func (a AccuracySpec) Valid() bool {
	return a.RelError > 0 && a.RelError < 1 && a.Confidence > 0 && a.Confidence < 1
}

// RequiredRowsPerGroup returns the sample size k per group needed to hit the
// spec for a column with coefficient of variation cv, from the CLT sample
// size formula n = (z·cv/e)². A floor of 30 keeps the normal approximation
// honest for low-variance columns.
func RequiredRowsPerGroup(cv float64, spec AccuracySpec) int {
	if !spec.Valid() {
		spec = DefaultAccuracy
	}
	if cv <= 0 {
		cv = 1
	}
	z := ZQuantile(spec.Confidence)
	n := math.Ceil(math.Pow(z*cv/spec.RelError, 2))
	if n < 30 {
		n = 30
	}
	return int(n)
}

// maxUniformP is the paper's §IV-A cutoff: the uniform sampler is chosen
// only when some probability p ≤ 0.1 suffices. Larger p means the sample is
// barely smaller than the data and sampling would not pay for itself.
const maxUniformP = 0.1

// UniformProbability returns the sampling probability that makes the
// smallest group of size minGroup receive at least k rows with high
// probability, and whether that probability passes the paper's p ≤ 0.1
// usefulness bar. A Chernoff-style slack of 3·√(k) draws covers the "w.h.p."
// part: we solve p·minGroup ≥ k + 3√k.
func UniformProbability(k, minGroup int) (p float64, ok bool) {
	if minGroup <= 0 {
		return 1, false
	}
	need := float64(k) + 3*math.Sqrt(float64(k))
	p = need / float64(minGroup)
	if p >= 1 {
		return 1, false
	}
	return p, p <= maxUniformP
}
