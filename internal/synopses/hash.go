// Package synopses implements the summary structures a Taster plan can
// produce or read: uniform and distinct samples with Horvitz-Thompson
// weights (merged per morsel by the executor), the sketch-join synopsis — the
// build side's exact (count, sum) per join key, one row per key — and, for
// the BlinkDB baseline only, stratified samples.
//
// The two stored kinds, Sample and SketchJoin, are what warehouse.Item holds
// and what the codec (codec.go) serializes.
//
// Every structure is built in a single pass ("pipelineable", paper §II). The
// samplers are also "partitionable": per-morsel parts merge.
package synopses

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString returns the FNV-1a hash of s seeded with seed.
func hashString(s string, seed uint64) uint64 {
	h := uint64(fnvOffset) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 finalizes a 64-bit value (SplitMix64 finalizer), giving good
// avalanche behaviour for integer keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SplitSeed derives an independent child seed from a parent seed and a
// stream index. The morsel-driven executor gives every morsel the stream
// SplitSeed(querySeed, morselIdx), so sampling decisions depend only on the
// morsel's position in the input — never on which worker processed it or in
// what order — which is what makes parallel runs byte-identical to
// single-worker runs at the same seed.
func SplitSeed(seed, idx uint64) uint64 {
	return mix64(mix64(seed+0x9e3779b97f4a7c15) ^ (idx+1)*0xbf58476d1ce4e5b9)
}

// SeedFromString hashes an arbitrary string into a seed, used to derive
// per-query executor seeds from the canonical plan text so that the
// randomness a query sees does not depend on its arrival order under
// concurrent serving.
func SeedFromString(s string, seed uint64) uint64 {
	return mix64(hashString(s, seed))
}
