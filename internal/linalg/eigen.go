package linalg

import (
	"fmt"
	"math"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix:
// K = V * diag(values) * Vᵀ, with eigenvalues sorted ascending and the
// i-th column of V holding the eigenvector for values[i].
//
// The implementation is the classic two-stage dense symmetric solver:
// Householder reduction to tridiagonal form (tred2) followed by the
// implicit QL algorithm with Wilkinson shifts (tqli). It is O(n³) and
// intended for the preprocessing step of the PRIS/SOPHIE pipeline, where
// the paper's host CPU performs the same work once per problem (Section
// II-C). Every inner loop runs along a contiguous row of the row-major
// storage; the QL rotations and the sort work on the transposed
// transform, whose rows are the eigenvectors, and EigenSym transposes
// back in place at the end. It allocates the working copy of K (which
// becomes the returned vectors), d, e and one n-length scratch.
func EigenSym(k *Matrix) (values []float64, vectors *Matrix, err error) {
	values, vectors, err = eigenRows(k)
	if err != nil {
		return nil, nil, err
	}
	vectors.transposeInPlace()
	return values, vectors, nil
}

// eigenRows is EigenSym with the eigenvectors returned as rows: row i of
// the result holds the eigenvector for values[i]. PRISTransform reads
// them this way, contiguously, without the final transpose.
func eigenRows(k *Matrix) ([]float64, *Matrix, error) {
	n := k.rows
	if k.cols != n {
		return nil, nil, fmt.Errorf("%w: EigenSym needs a square matrix, got %dx%d", ErrDimensionMismatch, k.rows, k.cols)
	}
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	if !k.IsSymmetric(1e-9 * (1 + k.MaxAbs())) {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a symmetric matrix")
	}

	a := k.Clone() // will be overwritten with the accumulated transform
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(a, d, e)
	a.transposeInPlace()
	if err := tqli(d, e, a); err != nil {
		return nil, nil, err
	}
	sortEigen(d, a)
	return d, a, nil
}

// tred2 reduces the symmetric matrix held in a to tridiagonal form using
// Householder transformations, accumulating the orthogonal transform Q
// (A = Q·T·Qᵀ) in a. On return d holds the diagonal of T and e its
// subdiagonal (e[0] unused). This is the EISPACK/Numerical Recipes formulation with its
// two column walks turned into row walks; every element still receives
// the same operations in the same order, so the output is bit-identical
// to the textbook loop nest:
//
//   - Reduction, p = A·u/h. The textbook sums g_j = Σ_{k≤j} a(j,k)·u_k
//     along row j, then Σ_{j<k≤l} a(k,j)·u_k down column j. Here all the
//     row parts run first, then the column parts with k as the outer loop
//     (reading row k): each g_j still adds its terms in increasing k.
//     The a(j,i) = u_j/h stores go to the upper triangle, which this
//     step never reads.
//   - Accumulation, Q ← (I − u·uᵀ/h)·Q. Each g_j = Σ_k a(i,k)·a(k,j)
//     reads column j only, and the rank-1 update of column j never feeds
//     another g_{j'}. So every g_j is summed first (k outer, row k
//     contiguous, one n-length scratch) and the update then runs row by
//     row.
func tred2(a *Matrix, d, e []float64) {
	n := a.rows
	m := a.data
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ai := m[i*n : i*n+i] // row i left of the diagonal: u after scaling
		h := 0.0
		scale := 0.0
		if l > 0 {
			for _, v := range ai {
				scale += math.Abs(v)
			}
			if scale == 0 {
				e[i] = ai[l]
			} else {
				for k, v := range ai {
					v /= scale
					ai[k] = v
					h += v * v
				}
				f := ai[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				ai[l] = f - g
				// e[j] accumulates g_j: the row part, then the column part.
				for j := 0; j <= l; j++ {
					aj := m[j*n : j*n+j+1]
					u := ai[:len(aj)]
					sum := 0.0
					for k, v := range aj {
						sum += v * u[k]
					}
					e[j] = sum
				}
				for k := 1; k <= l; k++ {
					ak := m[k*n : k*n+k]
					ek := e[:len(ak)]
					uk := ai[k]
					for j, v := range ak {
						ek[j] += v * uk
					}
				}
				f = 0.0
				for j, u := range ai {
					m[j*n+i] = u / h
					e[j] /= h
					f += e[j] * u
				}
				hh := f / (h + h)
				for j := range ai {
					f = ai[j]
					g = e[j] - hh*f
					e[j] = g
					aj := m[j*n : j*n+j+1]
					ej, u := e[:len(aj)], ai[:len(aj)]
					for k := range aj {
						aj[k] += -(f*ej[k] + g*u[k])
					}
				}
			}
		} else {
			e[i] = ai[l]
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		ai := m[i*n : i*n+i]
		if d[i] != 0 {
			gi := g[:i]
			clear(gi)
			for k, aik := range ai {
				ak := m[k*n : k*n+i]
				for j, v := range ak {
					gi[j] += aik * v
				}
			}
			for k := range ai {
				ak := m[k*n : k*n+i]
				aki := m[k*n+i]
				for j := range ak {
					ak[j] += -gi[j] * aki
				}
			}
		}
		d[i] = m[i*n+i]
		m[i*n+i] = 1.0
		for j := range ai {
			m[j*n+i] = 0.0
			ai[j] = 0.0
		}
	}
}

// tqli diagonalizes a symmetric tridiagonal matrix (diagonal d,
// subdiagonal e with e[0] unused) using the implicit QL method with
// shifts, accumulating the rotations into the rows of z. On return d
// holds the eigenvalues and row j of z the eigenvector for d[j]. z
// enters as the transposed basis (tred2's transform, transposed, or the
// identity), so each rotation combines two contiguous rows.
func tqli(d, e []float64, z *Matrix) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	const maxIter = 50
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				//sophielint:ignore floateq deliberate machine-epsilon convergence test: e[m] has become negligible exactly when adding it does not change dd
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return fmt.Errorf("linalg: tqli failed to converge after %d iterations", maxIter)
			}
			g := (d[l+1] - d[l]) / (2.0 * e[l])
			r := math.Hypot(g, 1.0)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: deflate and restart this eigenvalue.
					d[i+1] -= p
					e[m] = 0.0
					underflow = i >= l
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2.0*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				zi, zj := z.Row(i), z.Row(i+1)
				zj = zj[:len(zi)]
				for k, x := range zi {
					f = zj[k]
					zj[k] = s*x + c*f
					zi[k] = c*x - s*f
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0.0
		}
	}
	return nil
}

// sortEigen sorts eigenvalues ascending, permuting the eigenvector rows
// of v to match. Selection sort keeps the row swaps simple and the O(n²)
// cost is negligible next to the O(n³) decomposition.
func sortEigen(d []float64, v *Matrix) {
	n := len(d)
	for i := 0; i < n-1; i++ {
		min := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[min] {
				min = j
			}
		}
		if min != i {
			d[i], d[min] = d[min], d[i]
			vi, vm := v.Row(i), v.Row(min)
			vm = vm[:len(vi)]
			for c := range vi {
				vi[c], vm[c] = vm[c], vi[c]
			}
		}
	}
}

// ReconstructSym rebuilds V * diag(values) * Vᵀ, primarily for testing
// that an eigendecomposition round-trips to the original matrix.
func ReconstructSym(values []float64, vectors *Matrix) *Matrix {
	n := vectors.rows
	k := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for c := 0; c < n; c++ {
				sum += vectors.At(i, c) * values[c] * vectors.At(j, c)
			}
			k.Set(i, j, sum)
		}
	}
	return k
}
