package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// EigenSymTopK approximates the k algebraically largest eigenpairs of a
// symmetric matrix using the Lanczos iteration with full
// reorthogonalization. It returns eigenvalues in descending order with
// the matching Ritz vectors as columns.
//
// This enables approximate eigenvalue dropout for problems too large
// for the dense O(n³) solver: the PRIS transform is dominated by the
// largest shifted eigenvalues (the negative ones drop out at α=0), so a
// truncated expansion over the top-k pairs preserves the dynamics. The
// paper's host performs full preprocessing; this is the scalable
// alternative DESIGN.md lists as an extension.
//
// iters bounds the Krylov dimension; 0 picks min(n, 2k+30).
func EigenSymTopK(a *Matrix, k, iters int, seed int64) ([]float64, *Matrix, error) {
	op, err := AsOperator(a)
	if err != nil {
		return nil, nil, err
	}
	return EigenSymTopKOp(op, k, iters, seed)
}

// EigenSymTopKOp is EigenSymTopK over an abstract symmetric Operator,
// so sparse matrices (CSR) run the same Krylov iteration without
// densifying.
func EigenSymTopKOp(a Operator, k, iters int, seed int64) ([]float64, *Matrix, error) {
	n := a.Order()
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("linalg: top-k %d outside [1,%d]", k, n)
	}
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	m := iters
	if m == 0 {
		m = 2*k + 30
	}
	if m > n {
		m = n
	}
	if m < k {
		return nil, nil, fmt.Errorf("linalg: Krylov dimension %d below k=%d", m, k)
	}

	rng := rand.New(rand.NewSource(seed))
	// Lanczos basis vectors, kept for full reorthogonalization and for
	// assembling Ritz vectors.
	q := make([][]float64, 0, m+1)
	q0 := make([]float64, n)
	for i := range q0 {
		q0[i] = rng.NormFloat64()
	}
	normalize(q0)
	q = append(q, q0)

	alphas := make([]float64, 0, m)
	betas := make([]float64, 0, m)
	w := make([]float64, n)
	for j := 0; j < m; j++ {
		qj := q[j]
		a.Apply(qj, w)
		if j > 0 {
			bj := betas[j-1]
			prev := q[j-1]
			for i := range w {
				w[i] -= bj * prev[i]
			}
		}
		alpha := Dot(w, qj)
		alphas = append(alphas, alpha)
		for i := range w {
			w[i] -= alpha * qj[i]
		}
		// Full reorthogonalization keeps the basis numerically
		// orthogonal — O(n·j) per step, fine at the sizes we target.
		for _, qi := range q {
			d := Dot(w, qi)
			for i := range w {
				w[i] -= d * qi[i]
			}
		}
		beta := VecNorm2(w)
		if j == m-1 {
			break
		}
		if beta < 1e-12*(1+math.Abs(alpha)) {
			// Invariant subspace found: restart with a fresh random
			// direction orthogonal to the basis. The new block is
			// disconnected from the old one, so its coupling entry in
			// the tridiagonal matrix is zero (T becomes block diagonal).
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			for _, qi := range q {
				d := Dot(w, qi)
				for i := range w {
					w[i] -= d * qi[i]
				}
			}
			norm := VecNorm2(w)
			if norm < 1e-12 {
				break // the basis spans the whole space
			}
			betas = append(betas, 0)
			next := make([]float64, n)
			for i := range next {
				next[i] = w[i] / norm
			}
			q = append(q, next)
			continue
		}
		betas = append(betas, beta)
		next := make([]float64, n)
		for i := range next {
			next[i] = w[i] / beta
		}
		q = append(q, next)
	}

	// Diagonalize the tridiagonal Rayleigh quotient.
	dim := len(alphas)
	d := append([]float64(nil), alphas...)
	e := make([]float64, dim)
	copy(e[1:], betas)
	z := NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		z.Set(i, i, 1)
	}
	if err := tqli(d, e, z); err != nil {
		return nil, nil, err
	}
	sortEigen(d, z) // ascending; row j of z holds the Ritz coefficients for d[j]

	if k > dim {
		k = dim
	}
	values := make([]float64, k)
	vectors := NewMatrix(n, k)
	for c := 0; c < k; c++ {
		src := dim - 1 - c // descending pick
		values[c] = d[src]
		for j, zj := range z.Row(src) {
			if zj == 0 {
				continue
			}
			qj := q[j]
			for i := 0; i < n; i++ {
				vectors.Add(i, c, zj*qj[i])
			}
		}
	}
	return values, vectors, nil
}

func normalize(v []float64) {
	norm := VecNorm2(v)
	if norm == 0 {
		return
	}
	for i := range v {
		v[i] /= norm
	}
}

// PRISTransformRank computes a rank-limited approximation of the PRIS
// transformation matrix using the top-rank eigenpairs from Lanczos:
//
//	C ≈ Σ_{top rank} 2·Re(√(λ+αΔ)) · u uᵀ
//
// At α=0 only positive eigenvalues contribute, so a truncation over the
// largest pairs captures exactly the surviving spectrum when rank covers
// the positive eigenvalues. Cost is O(rank·n²) instead of O(n³).
func PRISTransformRank(k *Matrix, alpha float64, rank int, seed int64) (*Matrix, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("linalg: PRISTransformRank alpha %v outside [0,1]", alpha)
	}
	values, vectors, err := EigenSymTopK(k, rank, 0, seed)
	if err != nil {
		return nil, err
	}
	delta, err := GershgorinRadius(k)
	if err != nil {
		return nil, err
	}
	return expandDropout(values, vectors, alpha, delta), nil
}

// expandDropout materializes C = Σ 2·Re(√(λ+αΔ))·u uᵀ over the given
// eigenpairs (descending), skipping dropped-out (non-positive shifted)
// eigenvalues, and symmetrizes the result.
func expandDropout(values []float64, vectors *Matrix, alpha, delta float64) *Matrix {
	n := vectors.Rows()
	c := NewMatrix(n, n)
	col := make([]float64, n)
	for e, lambda := range values {
		shifted := lambda + alpha*delta
		if shifted <= 0 {
			continue // dropped out (and everything below is smaller)
		}
		wgt := 2 * math.Sqrt(shifted)
		for i := 0; i < n; i++ {
			col[i] = vectors.At(i, e)
		}
		for i := 0; i < n; i++ {
			vi := col[i] * wgt
			if vi == 0 {
				continue
			}
			ci := c.Row(i)
			for j := 0; j < n; j++ {
				ci[j] += vi * col[j]
			}
		}
	}
	// Symmetrize away floating-point asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := (c.At(i, j) + c.At(j, i)) / 2
			c.Set(i, j, avg)
			c.Set(j, i, avg)
		}
	}
	return c
}

// PRISTransformRankSparse computes the rank-limited PRIS transform from
// a sparse coupling matrix without densifying it: the Lanczos iteration
// runs on the CSR operator and only the rank-k outer-product expansion
// materializes the (dense) result. Cost is O(rank·(nnz + n)) for the
// eigenpairs plus O(rank·n²) for the expansion.
func PRISTransformRankSparse(k *CSR, alpha float64, rank int, seed int64) (*Matrix, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("linalg: PRISTransformRankSparse alpha %v outside [0,1]", alpha)
	}
	values, vectors, err := EigenSymTopKOp(k, rank, 0, seed)
	if err != nil {
		return nil, err
	}
	return expandDropout(values, vectors, alpha, k.GershgorinRadius()), nil
}
