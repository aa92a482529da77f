package storage

// StatsUncoded exposes statsUncoded to the external test package, which can
// import the workload generators this package cannot.
var StatsUncoded = statsUncoded
