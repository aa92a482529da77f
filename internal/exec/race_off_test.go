//go:build !race

package exec

// raceEnabled: see race_on_test.go.
const raceEnabled = false
