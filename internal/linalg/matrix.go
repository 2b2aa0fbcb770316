// Package linalg provides the dense linear algebra substrate used by the
// PRIS and SOPHIE Ising solvers: row-major dense matrices, matrix-vector
// products (including transposed products, mirroring the bi-directional
// OPCM arrays), and a symmetric eigensolver used by the eigenvalue-dropout
// preprocessing step (Eq. 2-4 of the paper).
//
// Everything here is pure Go over float64 slices; there are no external
// numerical dependencies. The solvers in internal/pris and internal/core
// consume matrices through this package, and internal/opcm layers a
// quantized, noisy device model on top of the same representation.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Matrices are mutable; methods
// that return a new matrix say so explicitly, all others modify or read
// the receiver in place.
type Matrix struct {
	rows, cols int
	data       []float64
	// mirror caches the column-major mirror (the transpose) built by
	// ColMirror, so column gathers and transposed products stream
	// unit-stride. Set, Add, and Scale invalidate it; writes through
	// Row or Data do not (see ColMirror).
	mirror *Matrix
}

// NewMatrix returns a zeroed rows x cols matrix.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom returns a rows x cols matrix backed by a copy of data,
// interpreted in row-major order. It returns an error if len(data)
// does not equal rows*cols.
func NewMatrixFrom(rows, cols int, data []float64) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: invalid matrix dimensions %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("linalg: data length %d does not match %dx%d", len(data), rows, cols)
	}
	d := make([]float64, len(data))
	copy(d, data)
	return &Matrix{rows: rows, cols: cols, data: d}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.mirror = nil
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.mirror = nil
	m.data[i*m.cols+j] += v
}

// Row returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing row-major slice. Mutating it mutates the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix. The column-major mirror
// cache is not cloned; the copy rebuilds it lazily on first use.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Matrix{rows: m.rows, cols: m.cols, data: d}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// transposeInPlace transposes the square matrix m in its own storage.
func (m *Matrix) transposeInPlace() {
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.data[i*n+j], m.data[j*n+i] = m.data[j*n+i], m.data[i*n+j]
		}
	}
	m.mirror = nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute value of any element, or 0 for an
// empty matrix.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	sum := 0.0
	for _, v := range m.data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Scale multiplies every element of m by f in place.
func (m *Matrix) Scale(f float64) {
	m.mirror = nil
	for i := range m.data {
		m.data[i] *= f
	}
}

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// MulVec computes y = m*x. If y is non-nil it must have length m.Rows()
// and is overwritten and returned; otherwise a new slice is allocated.
func (m *Matrix) MulVec(x, y []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: MulVec x has length %d, want %d", ErrDimensionMismatch, len(x), m.cols)
	}
	if y == nil {
		y = make([]float64, m.rows)
	} else if len(y) != m.rows {
		return nil, fmt.Errorf("%w: MulVec y has length %d, want %d", ErrDimensionMismatch, len(y), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		sum := 0.0
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y, nil
}

// MulVecT computes y = mᵀ*x, the transposed matrix-vector product.
// This mirrors the bi-directional OPCM array, which can multiply by the
// stored matrix or its transpose without reprogramming (Eq. 8-9).
// If y is non-nil it must have length m.Cols() and is overwritten.
func (m *Matrix) MulVecT(x, y []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("%w: MulVecT x has length %d, want %d", ErrDimensionMismatch, len(x), m.rows)
	}
	if y == nil {
		y = make([]float64, m.cols)
	} else if len(y) != m.cols {
		return nil, fmt.Errorf("%w: MulVecT y has length %d, want %d", ErrDimensionMismatch, len(y), m.cols)
	}
	for j := range y {
		y[j] = 0
	}
	// Row-major friendly accumulation: stream rows, scale by x[i].
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y, nil
}

// Mul returns the product a*b as a new matrix.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: Mul %dx%d by %dx%d", ErrDimensionMismatch, a.rows, a.cols, b.rows, b.cols)
	}
	c := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

// SubMatrix returns a copy of the block of m with rows [r0,r1) and
// columns [c0,c1). Out-of-range rows/columns are clipped to the matrix;
// regions entirely outside yield zero-filled entries, which supports the
// zero-padded edge tiles used by the tiled solver.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r1 < r0 || c1 < c0 {
		panic(fmt.Sprintf("linalg: invalid submatrix bounds [%d,%d)x[%d,%d)", r0, r1, c0, c1))
	}
	s := NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1 && i < m.rows; i++ {
		if i < 0 {
			continue
		}
		src := m.Row(i)
		dst := s.Row(i - r0)
		for j := c0; j < c1 && j < m.cols; j++ {
			if j < 0 {
				continue
			}
			dst[j-c0] = src[j]
		}
	}
	return s
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	sum := 0.0
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// VecNorm2 returns the Euclidean norm of v.
func VecNorm2(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// AddVec stores a+b into dst (allocating when dst is nil) and returns dst.
func AddVec(dst, a, b []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(a))
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}
