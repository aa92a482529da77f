//go:build !race

package storage

// raceEnabled: see race_on_test.go.
const raceEnabled = false
