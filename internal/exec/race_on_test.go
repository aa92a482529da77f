//go:build race

package exec

// raceEnabled reports whether the test binary runs under the race detector,
// where sync.Pool deliberately drops a share of Puts: borrowed scratch is
// then reallocated at random, so allocation counts say nothing.
const raceEnabled = true
