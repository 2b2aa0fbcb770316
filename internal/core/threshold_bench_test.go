package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkThresholdDelta times the fast path's threshold pass alone —
// noise, compare and flip record over one block — and reports ns per
// thresholded element. The block mimics a sparse max-cut tile: random
// pre-threshold sums around θ = 0 (so the compare branch is
// unpredictable, as on a real tile) and noise scale √3, the row norm of
// a unit-weight cubic graph. φ = 0 prices the compare loop without
// noise, so the φ = 0.1 arm's surplus is the generator's cost.
//
// Run with:
//
//	go test ./internal/core -bench ThresholdDelta -run '^$'
func BenchmarkThresholdDelta(b *testing.B) {
	for _, tile := range []int{64, 1024} {
		for _, phi := range []float64{0.1, 0} {
			b.Run(fmt.Sprintf("tile%d/phi%g", tile, phi), func(b *testing.B) {
				s := &Solver{thresholds: make([]float64, tile), noiseScale: make([]float64, tile)}
				rng := rand.New(rand.NewSource(1))
				y := make([]float64, tile)
				for i := range y {
					y[i] = rng.NormFloat64() * math.Sqrt(3)
					s.noiseScale[i] = math.Sqrt(3)
				}
				off := make([]float64, tile)
				dst := make([]float64, tile)
				flips := make([]int, 0, tile)
				signs := make([]float64, 0, tile)
				noise := newNormStream(2)
				buf := make([]float64, tile)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.thresholdDelta(dst, y, off, 0, noise, buf, phi, &flips, &signs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tile), "ns/elem")
			})
		}
	}
}
