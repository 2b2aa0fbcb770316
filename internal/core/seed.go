package core

// RNG stream derivation.
//
// A job's randomness fans out into independent streams: one controller
// stream (initial state, tile selection, spin picks), one stream per
// tile pair (threshold noise), and one device stream when the engine
// models stochastic hardware (opcm read noise). Before PR 3 these were
// derived with raw arithmetic — `seed ^ 0x5deece66d` for the controller
// and `seed + i*7919 + 1` for pair i — which has structural collisions:
// two jobs whose seeds differ by the XOR constant share a controller
// stream, and a pair seed of one job can equal the controller or a pair
// seed of a nearby job. Batched replica execution makes nearby seeds
// the common case, so streams are now separated by splitmix64, a
// bijective 64-bit finalizer whose increments diffuse through every
// output bit (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014).
//
// Compatibility note: this changes the random trajectory of every run
// relative to revisions before PR 3. Results remain a pure function of
// the seed — only the function changed — and TestSeedStreamGolden pins
// the new derivation so any future change is equally deliberate.

// Stream roles. The role lands in the top byte of the mixer input, so
// no pair index (< 2^56) can alias one role's stream onto another's.
const (
	roleController uint64 = 0xC1
	rolePair       uint64 = 0x9A
	roleDevice     uint64 = 0xD5
	// roleColored feeds the colored sweep's stateless noise: one stream
	// per diagonal tile pair (the stream index is the pair), and each
	// (step, spin) draws its normal deviate by mixing the stream with the
	// step counter and the tile-local spin — no per-worker RNG state,
	// which is what makes the chromatic sweep bit-reproducible at any
	// worker count.
	roleColored uint64 = 0x7C
	// roleExchange feeds the tempering runtime's exchange decisions: one
	// stream per portfolio (derived from the coldest rung's seed), and
	// each (round, rung) attempt draws its acceptance uniform by mixing
	// the stream with the round and rung counters — stateless like
	// roleColored, which is what makes exchange outcomes bit-reproducible
	// at any worker count.
	roleExchange uint64 = 0xE7
)

// splitmix64 is the SplitMix64 finalizer: a bijection on 64-bit values
// with full avalanche, so structured inputs (consecutive seeds, XOR
// siblings, small indices) map to statistically independent outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedStream derives the RNG seed of the stream (jobSeed, role, index).
// Two applications of the bijective mixer separate the job dimension
// from the (role, index) dimension: streams of the same job differ in
// the second mixer's input (distinct role byte or index), and streams
// of different jobs differ in the first mixer's output. Structural
// collisions are impossible; accidental ones have the 2^-64 probability
// of any 64-bit hash pair.
func seedStream(jobSeed int64, role uint64, index int) int64 {
	z := splitmix64(uint64(jobSeed))
	return int64(splitmix64(z ^ (role << 56) ^ uint64(index)))
}
