package linalg

import (
	"fmt"
	"math"
)

// GershgorinRadius returns max_i Σ_{j≠i} |K_ij|, an upper bound on how far
// any eigenvalue of the symmetric matrix K can lie below zero. The paper's
// eigenvalue-dropout shift Δ (Eq. 4) is built from these row sums; we use
// the max as a single scalar shift so that α=1 keeps every eigenvalue
// (λ+Δ ≥ 0 by Gershgorin's theorem) and α=0 drops every negative one,
// matching the dropout semantics of the PRIS preprocessing.
func GershgorinRadius(k *Matrix) (float64, error) {
	if k.rows != k.cols {
		return 0, fmt.Errorf("%w: GershgorinRadius needs a square matrix", ErrDimensionMismatch)
	}
	max := 0.0
	for i := 0; i < k.rows; i++ {
		row := k.Row(i)
		sum := 0.0
		for j, v := range row {
			if j != i {
				sum += math.Abs(v)
			}
		}
		if sum > max {
			max = sum
		}
	}
	return max, nil
}

// PRISTransform computes the PRIS transformation matrix (Eq. 2-4):
//
//	K = U D Uᵀ
//	C = U Sq_α(D) Uᵀ,  Sq_α(D)_kk = 2·Re(√(λ_k + α·Δ)),  Δ = Gershgorin radius
//
// Negative shifted eigenvalues contribute zero (their square root is
// imaginary, so the real part vanishes) — this is the "eigenvalue
// dropout". α ∈ [0,1] is the dropout knob: α=0 drops all negative
// eigenvalues, α=1 keeps everything.
//
// The returned matrix is symmetric. PRISTransform is O(n³) and intended
// as one-time host-side preprocessing, exactly as in the paper.
func PRISTransform(k *Matrix, alpha float64) (*Matrix, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("linalg: PRISTransform alpha %v outside [0,1]", alpha)
	}
	values, vectors, err := eigenRows(k)
	if err != nil {
		return nil, err
	}
	delta, err := GershgorinRadius(k)
	if err != nil {
		return nil, err
	}
	sq := make([]float64, len(values))
	for i, lambda := range values {
		shifted := lambda + alpha*delta
		if shifted > 0 {
			sq[i] = 2 * math.Sqrt(shifted)
		}
		// Re(√shifted) = 0 for shifted < 0: the eigenvalue drops out.
	}
	return scaledOuterSum(vectors, sq), nil
}

// scaledOuterSum computes Σ_e w_e·v_e·v_eᵀ, where v_e is row e of vt
// (eigenRows' layout), skipping zero weights so the cost scales with the
// number of surviving eigenvalues after dropout.
func scaledOuterSum(vt *Matrix, w []float64) *Matrix {
	n := vt.rows
	c := NewMatrix(n, n)
	for e, we := range w {
		if we == 0 {
			continue
		}
		ve := vt.Row(e)
		for i := 0; i < n; i++ {
			ci := c.Row(i)
			vi := ve[i] * we
			if vi == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				ci[j] += vi * ve[j]
			}
		}
	}
	// Symmetrize to squash accumulated floating-point asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := (c.At(i, j) + c.At(j, i)) / 2
			c.Set(i, j, avg)
			c.Set(j, i, avg)
		}
	}
	return c
}

// Thresholds computes the PRIS thresholding vector θ_i = Σ_j C_ij / 2
// (Eq. 7) for the transformation matrix C.
func Thresholds(c *Matrix) []float64 {
	th := make([]float64, c.rows)
	for i := 0; i < c.rows; i++ {
		sum := 0.0
		for _, v := range c.Row(i) {
			sum += v
		}
		th[i] = sum / 2
	}
	return th
}
