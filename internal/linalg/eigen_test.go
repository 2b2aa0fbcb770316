package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestEigenSymDiagonal(t *testing.T) {
	m, _ := NewMatrixFrom(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	vals, vecs, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if !almostEqual(vals[i], w, 1e-10) {
			t.Fatalf("eigenvalues %v, want %v", vals, want)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit basis vectors.
	for c := 0; c < 3; c++ {
		nonzero := 0
		for r := 0; r < 3; r++ {
			if math.Abs(vecs.At(r, c)) > 1e-9 {
				nonzero++
				if !almostEqual(math.Abs(vecs.At(r, c)), 1, 1e-9) {
					t.Fatalf("eigenvector column %d not a basis vector", c)
				}
			}
		}
		if nonzero != 1 {
			t.Fatalf("eigenvector column %d has %d nonzeros", c, nonzero)
		}
	}
}

func TestEigenSym2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m, _ := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	vals, _, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 1, 1e-10) || !almostEqual(vals[1], 3, 1e-10) {
		t.Fatalf("eigenvalues %v, want [1 3]", vals)
	}
}

func TestEigenSymEmptyAndErrors(t *testing.T) {
	vals, vecs, err := EigenSym(NewMatrix(0, 0))
	if err != nil || len(vals) != 0 || vecs.Rows() != 0 {
		t.Fatal("empty matrix should decompose trivially")
	}
	if _, _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	asym, _ := NewMatrixFrom(2, 2, []float64{0, 1, 5, 0})
	if _, _, err := EigenSym(asym); err == nil {
		t.Fatal("expected error for asymmetric matrix")
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 40} {
		rng := rand.New(rand.NewSource(int64(n)))
		m := randomSym(n, rng)
		vals, vecs, err := EigenSym(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := ReconstructSym(vals, vecs)
		tol := 1e-8 * float64(n) * (1 + m.MaxAbs())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), m.At(i, j), tol) {
					t.Fatalf("n=%d: reconstruction error at (%d,%d): %v vs %v",
						n, i, j, rec.At(i, j), m.At(i, j))
				}
			}
		}
		// Eigenvalues must come out sorted ascending.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("n=%d: eigenvalues not sorted: %v", n, vals)
			}
		}
	}
}

func TestEigenSymOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomSym(12, rng)
	_, v, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	n := v.Rows()
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			dot := 0.0
			for r := 0; r < n; r++ {
				dot += v.At(r, a) * v.At(r, b)
			}
			want := 0.0
			if a == b {
				want = 1.0
			}
			if !almostEqual(dot, want, 1e-8) {
				t.Fatalf("columns %d,%d dot=%v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestEigenSymTraceAndDeterminantInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSym(8, rng)
	vals, _, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	trace := 0.0
	for i := 0; i < 8; i++ {
		trace += m.At(i, i)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if !almostEqual(trace, sum, 1e-8) {
		t.Fatalf("trace %v != eigenvalue sum %v", trace, sum)
	}
}

func TestGershgorinRadius(t *testing.T) {
	m, _ := NewMatrixFrom(3, 3, []float64{
		0, 1, -2,
		1, 0, 3,
		-2, 3, 0,
	})
	r, err := GershgorinRadius(m)
	if err != nil {
		t.Fatal(err)
	}
	if r != 5 {
		t.Fatalf("Gershgorin radius %v, want 5", r)
	}
	if _, err := GershgorinRadius(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square")
	}
}

func TestGershgorinBoundsEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomSym(10, rng)
	vals, _, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	radius, _ := GershgorinRadius(m)
	maxDiag := 0.0
	for i := 0; i < 10; i++ {
		if a := math.Abs(m.At(i, i)); a > maxDiag {
			maxDiag = a
		}
	}
	bound := radius + maxDiag
	for _, v := range vals {
		if math.Abs(v) > bound+1e-9 {
			t.Fatalf("eigenvalue %v outside Gershgorin bound %v", v, bound)
		}
	}
}

func TestPRISTransformAlphaOneKeepsSpectrum(t *testing.T) {
	// With alpha=1 every shifted eigenvalue is nonnegative so none drop out;
	// C must be symmetric and PSD-derived (all 2·sqrt entries real).
	rng := rand.New(rand.NewSource(5))
	k := randomSym(10, rng)
	c, err := PRISTransform(k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsSymmetric(1e-9) {
		t.Fatal("PRISTransform result must be symmetric")
	}
	valsC, _, err := EigenSym(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range valsC {
		if v < -1e-8 {
			t.Fatalf("alpha=1 transform has negative eigenvalue %v", v)
		}
	}
}

func TestPRISTransformAlphaZeroDropsNegatives(t *testing.T) {
	// A matrix with a known negative eigenvalue: [[0,1],[1,0]] has λ = ±1.
	// With alpha=0 the negative eigenvalue drops; C = 2·u₊u₊ᵀ where
	// u₊ = (1,1)/√2, so C = [[1,1],[1,1]].
	k, _ := NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	c, err := PRISTransform(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEqual(c.At(i, j), 1, 1e-10) {
				t.Fatalf("C = %v, want all ones", c.Data())
			}
		}
	}
}

func TestPRISTransformAlphaValidation(t *testing.T) {
	k, _ := NewMatrixFrom(1, 1, []float64{1})
	if _, err := PRISTransform(k, -0.1); err == nil {
		t.Fatal("expected error for alpha < 0")
	}
	if _, err := PRISTransform(k, 1.1); err == nil {
		t.Fatal("expected error for alpha > 1")
	}
}

func TestThresholds(t *testing.T) {
	c, _ := NewMatrixFrom(2, 2, []float64{1, 3, 2, 4})
	th := Thresholds(c)
	if th[0] != 2 || th[1] != 3 {
		t.Fatalf("thresholds %v, want [2 3]", th)
	}
}

func benchmarkEigenSym(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	m := randomSym(n, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym64(b *testing.B)  { benchmarkEigenSym(b, 64) }
func BenchmarkEigenSym150(b *testing.B) { benchmarkEigenSym(b, 150) }
func BenchmarkEigenSym256(b *testing.B) { benchmarkEigenSym(b, 256) }

func BenchmarkMulVec256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randomSym(256, rng)
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MulVec(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
