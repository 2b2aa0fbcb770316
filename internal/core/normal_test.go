package core

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the Int63 words math/rand's Rand consumes, so
// the reference side of TestNormStreamMatchesMathRand can tell which
// ziggurat path produced each deviate.
type countingSource struct {
	rand.Source64
	words int
}

func (c *countingSource) Int63() int64 {
	c.words++
	return c.Source64.Int63()
}

// TestNormStreamMatchesMathRand pins normStream to math/rand bit for
// bit: over 2·10⁶ draws per seed (10⁷ in all) in uneven fill blocks of
// 1..1024, interleaved with scalar NormFloat64 draws on a Rand wrapping
// the stream's own source, every deviate must equal the reference
// rand.New(rand.NewSource(seed)).NormFloat64 stream's. Equal values
// with the streams still in step after every block mean each draw took
// the same words; the reference side's word counts show that both slow
// paths — the strip-0 tail (|x| ≥ rn) and an accepted wedge (exactly
// two words) — were among them.
func TestNormStreamMatchesMathRand(t *testing.T) {
	const perSeed = 2_000_000
	const maxBlock = 1024
	strip0, wedge := 0, 0
	buf := make([]float64, maxBlock)
	for _, seed := range []int64{0, 1, -5, 1 << 40, 123456789} {
		refSrc := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(refSrc)
		next := func() float64 {
			before := refSrc.words
			v := ref.NormFloat64()
			switch {
			case math.Abs(v) >= rn:
				strip0++
			case refSrc.words-before == 2:
				wedge++
			}
			return v
		}
		s := newNormStream(seed)
		scalar := rand.New(s.src)
		lengths := rand.New(rand.NewSource(seed))
		for drawn := 0; drawn < perSeed; {
			n := 1 + lengths.Intn(maxBlock)
			s.fill(buf[:n])
			for i, v := range buf[:n] {
				if want := next(); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: fill gave %v, math/rand %v", seed, drawn+i, v, want)
				}
			}
			drawn += n
			if v, want := scalar.NormFloat64(), next(); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: interleaved scalar gave %v, math/rand %v", seed, drawn, v, want)
			}
			drawn++
		}
	}
	if strip0 == 0 || wedge == 0 {
		t.Fatalf("slow paths not exercised: %d strip-0 tails, %d wedge accepts", strip0, wedge)
	}
	t.Logf("%d strip-0 tails, %d wedge accepts", strip0, wedge)
}
