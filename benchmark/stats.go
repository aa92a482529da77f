package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a latency tail may be reported at,
// highest first.
var tailLadder = []float64{0.99, 0.95, 0.90}

// rank is the nearest-rank index (1-based) of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of the n samples beyond it (the choosing-metrics rule), or 0.5
// when even p90 has not.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0.5
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// gives them (the "exclusive" method), the rule the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// busyClock accumulates the time the engine under test is working for the
// client. The harness pauses it while it waits on Drain or does its own
// bookkeeping, so queries_per_s divides by time the live engine was actually
// serving and a slower tuner round or checker cannot pose as a slower query
// path.
type busyClock struct {
	total   time.Duration
	started time.Time
	running bool
}

func (c *busyClock) start() {
	if !c.running {
		c.started, c.running = time.Now(), true
	}
}

func (c *busyClock) pause() {
	if c.running {
		c.total += time.Since(c.started)
		c.running = false
	}
}

func (c *busyClock) seconds() float64 {
	if c.running {
		return (c.total + time.Since(c.started)).Seconds()
	}
	return c.total.Seconds()
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
