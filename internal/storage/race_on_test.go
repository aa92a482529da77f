//go:build race

package storage

// raceEnabled reports whether the test binary runs under the race detector,
// where sync.Pool deliberately drops a share of Puts: a recycled backing
// array is then likely, not certain.
const raceEnabled = true
