package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine whose
// speed moves by a factor of two within minutes: one seed's explore_cold
// took 12.7 s and 24.1 s in two runs of one binary. No run length that fits
// the time allowed averages that out, so the harness measures the host
// beside the engine and reports every time at a fixed host speed.
//
// The measure is calibrate: a fixed piece of work in the harness, which no
// change to the engine can touch. A client runs it between operations, after
// every calEvery of measured work, off every clock. An interval's local host
// speed is the mean of the calibration before it and the one after it, and
//
//	normalised time = measured time × calRefMs / local calibration time.
//
// The host slows different code differently: when building a string-keyed
// map of row lists (allocation, hashing, cache misses: what the engine's
// profile is made of) takes twice as long, a loop of arithmetic takes 1.3
// times as long, and the engine's queries fall between the two, nearer the
// first. So calibrate does both, 70 % map and 30 % arithmetic at the
// reference speed. Over sixty runs of one binary that mix left every timing
// metric of every workload a spread (distance between quartiles over median)
// of 2 to 11 %, against 9 to 26 % as measured; the map alone left up to 16 %,
// the arithmetic alone up to 18 %, and one calibration per run, in place of
// the two nearest, twice what the two nearest leave.
const (
	// calRefMs is the calibration time on the reference host in its fast
	// state, so that normalised times read as times measured there.
	calRefMs = 12.1
	calEvery = 100 * time.Millisecond
	calKeys  = 40000
	calLoop  = 7_800_000
)

// calKeySet is the calibration's fixed input.
var calKeySet = func() []uint64 {
	keys := make([]uint64, calKeys)
	x := uint64(88172645463325252)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x
	}
	return keys
}()

// calSink keeps the compiler from dropping the calibration's loops.
var calSink uint64

// calibrate does the fixed work once and returns how long it took.
func calibrate() time.Duration {
	t := time.Now()
	m := make(map[string][]int32, 1024)
	var key [8]byte
	put := func(k uint64) string {
		for b := range key {
			key[b] = byte(k >> (8 * b))
		}
		return string(key[:])
	}
	for i, k := range calKeySet {
		s := put(k % (calKeys / 2))
		m[s] = append(m[s], int32(i))
	}
	n := 0
	for _, k := range calKeySet {
		n += len(m[put(k%(calKeys*3/4))])
	}
	var sum uint64
	for i := uint64(0); i < calLoop; i++ {
		sum += i * 0x9e3779b97f4a7c15 >> 7
	}
	calSink += sum + uint64(n)
	return time.Since(t)
}

// calSample is one calibration: when it ended, on the run's clock, and how
// long it took.
type calSample struct {
	at time.Duration
	d  time.Duration
}

// calibrator is one goroutine's series of calibrations and the clock of the
// work between them.
type calibrator struct {
	t0      time.Time
	samples []calSample
	// since is the measured work since the last calibration; due compares it
	// with calEvery.
	since time.Duration
	// spent is the time all calibrations took.
	spent time.Duration
}

func newCalibrator(t0 time.Time) *calibrator { return &calibrator{t0: t0} }

// worked adds d to the work measured since the last calibration.
func (c *calibrator) worked(d time.Duration) { c.since += d }

func (c *calibrator) due() bool { return len(c.samples) == 0 || c.since >= calEvery }

// sample calibrates now.
func (c *calibrator) sample() {
	d := calibrate()
	c.samples = append(c.samples, calSample{at: time.Since(c.t0), d: d})
	c.spent += d
	c.since = 0
}

// local is the host's speed around the interval that started at start on the
// run's clock: the mean of the last calibration that ended before it and the
// first that ended after it, or the one of them there is. An interval is
// measured work between two calibrations, so it holds none itself.
func (c *calibrator) local(start time.Duration) time.Duration {
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at > start })
	switch {
	case len(c.samples) == 0:
		return time.Duration(calRefMs * float64(time.Millisecond))
	case i == 0:
		return c.samples[0].d
	case i == len(c.samples):
		return c.samples[i-1].d
	}
	return (c.samples[i-1].d + c.samples[i].d) / 2
}

// normalise returns d, measured from start on, as it would have read at the
// reference host speed.
func (c *calibrator) normalise(start, d time.Duration) time.Duration {
	return time.Duration(float64(d) * calRefMs * float64(time.Millisecond) / float64(c.local(start)))
}

// medianMs is the median calibration time of the series, in milliseconds.
func (c *calibrator) medianMs() float64 {
	ms := make([]float64, len(c.samples))
	for i, s := range c.samples {
		ms[i] = msOf(s.d)
	}
	return median(ms)
}

// interval is a stretch of measured work: when it started, on the run's
// clock, and how long it took.
type interval struct {
	start time.Duration
	d     time.Duration
}

// lapClock measures serial work, the set-up, as laps with a calibration
// between them whenever one is due.
type lapClock struct {
	cal  *calibrator
	laps []interval
	open time.Time
}

// newLapClock opens the first lap at t0, the start of the run's clock.
func newLapClock(t0 time.Time) *lapClock {
	return &lapClock{cal: newCalibrator(t0), open: t0}
}

// lap closes the open lap, calibrates if that is due, and opens the next.
func (l *lapClock) lap() {
	d := time.Since(l.open)
	l.laps = append(l.laps, interval{start: l.open.Sub(l.cal.t0), d: d})
	l.cal.worked(d)
	if l.cal.due() {
		l.cal.sample()
	}
	l.open = time.Now()
}

// finish closes the last lap, calibrates once more so that it has a
// calibration after it, and returns the laps' total as measured and
// normalised.
func (l *lapClock) finish() (raw, norm time.Duration) {
	l.lap()
	if l.cal.since > 0 {
		l.cal.sample()
	}
	for _, p := range l.laps {
		raw += p.d
		norm += l.cal.normalise(p.start, p.d)
	}
	return raw, norm
}
