// Package seedmix is golden input for the seedmix analyzer.
package seedmix

import "math/rand"

// mix stands in for the repo's splitmix64-based seedStream helper.
func mix(seed int64, index int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15 + uint64(index)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	return int64(x ^ (x >> 31))
}

// legacyController reproduces the pre-PR 3 controller derivation.
func legacyController(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5deece66d)) // want `raw "\^" seed derivation`
}

// legacyPairWalk reproduces the pre-PR 3 pair-seed walk.
func legacyPairWalk(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)*7919 + 1)) // want `raw "\+" seed derivation`
}

func shifted(seed int64, role uint8) rand.Source {
	return rand.NewSource(seed << int64(role)) // want `raw "<<" seed derivation`
}

func complemented(seed int64) rand.Source {
	return rand.NewSource(^seed) // want `raw "\^" seed derivation`
}

func reseeded(r *rand.Rand, seed int64, i int) {
	r.Seed(seed * int64(i)) // want `raw "\*" seed derivation`
}

// direct passes the base seed through untouched: fine.
func direct(seed int64) rand.Source {
	return rand.NewSource(seed)
}

// converted wraps the seed in a transparent conversion: fine.
func converted(i int) rand.Source {
	return rand.NewSource(int64(i))
}

// mixed derives through a named mixing function: the sanctioned
// pattern, arithmetic inside the call is the mixer's business.
func mixed(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, i)))
}

// literal seeds are fixed, not derived: fine.
func literal() rand.Source {
	return rand.NewSource(9)
}

// normStream stands in for the repo's threshold-noise stream: a named
// wrapper around a math/rand source, seeded through newNormStream.
type normStream struct {
	src rand.Source64
}

func newNormStream(seed int64) normStream {
	return normStream{src: rand.NewSource(seed).(rand.Source64)}
}

// legacyStream walks pair seeds additively into the stream constructor.
func legacyStream(seed int64, i int) normStream {
	return newNormStream(seed + int64(i)) // want `raw "\+" seed derivation in newNormStream`
}

// mixedStream derives the stream seed through the mixer: fine.
func mixedStream(seed int64, i int) normStream {
	return newNormStream(mix(seed, i))
}

// newPadding shares nothing with a stream but the seed-like argument:
// not a consumer, so its arithmetic is its own business.
func newPadding(seed int64) int64 { return seed }

func padded(seed int64) int64 {
	return newPadding(seed + 1)
}
