package storage

// StatsOracle and SameStats expose the statistics oracle to the external
// test package, which can import the workload generators this package
// cannot.
var (
	StatsOracle = statsOracle
	SameStats   = sameStats
)
