package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Operator is a symmetric linear operator, the abstraction iterative
// methods (Lanczos) need: GSET-style graphs are ~1% dense, so their
// coupling matrices should not be densified just to run the rank-k
// preprocessing.
type Operator interface {
	// Order returns the dimension n of the operator.
	Order() int
	// Apply computes y = A·x; len(x) == len(y) == Order().
	Apply(x, y []float64)
}

// denseOperator adapts a square Matrix to Operator.
type denseOperator struct{ m *Matrix }

func (d denseOperator) Order() int { return d.m.Rows() }
func (d denseOperator) Apply(x, y []float64) {
	if _, err := d.m.MulVec(x, y); err != nil {
		panic(err) // caller guarantees shapes
	}
}

// AsOperator wraps a square matrix as an Operator.
func AsOperator(m *Matrix) (Operator, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("%w: AsOperator needs a square matrix", ErrDimensionMismatch)
	}
	return denseOperator{m}, nil
}

// CSR is a compressed-sparse-row square matrix. Every row's column
// indices are stored in increasing order, which is what makes the
// kernels in sparsekernels.go bit-identical to their dense
// counterparts: per output element they accumulate the same non-zero
// terms in the same index order. Symmetric constructions (NewCSRSym)
// store both triangles so Apply is a plain row scan; NewCSRGeneral
// builds arbitrary square blocks (the tiling layer's off-diagonal
// tiles). Row pointers and column indices are int32: a tiled solver
// keeps one CSR per tile direction, most of them nearly empty, so the
// row pointers dominate its footprint. The builders reject an order or
// non-zero count that int32 cannot index (checkCSRSize).
type CSR struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vals   []float64
}

// checkCSRSize rejects a CSR whose order or non-zero count would not
// fit the int32 index arrays, rather than letting the indices wrap.
func checkCSRSize(n, nnz int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("linalg: CSR order %d exceeds the int32 index limit %d", n, math.MaxInt32)
	}
	if nnz > math.MaxInt32 {
		return fmt.Errorf("linalg: CSR with %d non-zeros exceeds the int32 index limit %d", nnz, math.MaxInt32)
	}
	return nil
}

// Entry is one (row, col, value) coordinate for CSR construction.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewCSRSym builds a symmetric CSR matrix of order n from upper- or
// lower-triangle entries: each off-diagonal entry (r,c,v) also inserts
// (c,r,v). Duplicate coordinates are summed. Zero values are dropped.
//
// Construction is a counting build (buildCSR): entries and their
// mirrors are bucketed by row, each row is stably ordered by column,
// and duplicates are summed in input order. It costs O(nnz) plus the
// per-row sorts, which matters for million-edge constructions now that
// CSR sits on the hot solve path.
func NewCSRSym(n int, entries []Entry) (*CSR, error) {
	return buildCSR(n, entries, true)
}

// NewCSRGeneral builds a square CSR matrix of order n from coordinate
// entries without symmetrization: only the listed coordinates are
// stored. Duplicate coordinates are summed in input order; zero sums
// are dropped. The tiling layer uses it for the off-diagonal tile
// blocks of a symmetric matrix, which are square but not symmetric.
func NewCSRGeneral(n int, entries []Entry) (*CSR, error) {
	return buildCSR(n, entries, false)
}

// buildCSR validates entries and assembles the CSR with a counting
// build. With mirror set, each off-diagonal entry (r,c,v) is followed by
// (c,r,v), as if the caller had listed it. The steps:
//
//  1. count coordinates per row into rowPtr and prefix-sum;
//  2. scatter them, in input order, into colIdx/vals, advancing rowPtr
//     itself as the per-row cursor (then shifted back one row);
//  3. order each row stably by column (sortRow);
//  4. merge duplicate coordinates in place, summing in input order, and
//     drop zero sums.
//
// Stability in steps 2–3 keeps each duplicate sum in input order, the
// order a stable (row, col) comparison sort gives, so the rounding of
// every sum is fixed by the input alone. entries is only read. Besides the CSR itself the build
// allocates nothing unless some row is longer than insertionSortMax,
// which gets one scratch buffer of the longest row's length. The order
// and the stored coordinate count are checked (checkCSRSize) before
// anything is allocated or summed into int32.
func buildCSR(n int, entries []Entry, mirror bool) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("linalg: negative CSR order %d", n)
	}
	nnz := len(entries)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("linalg: CSR entry (%d,%d) out of range for order %d", e.Row, e.Col, n)
		}
		if mirror && e.Row != e.Col {
			nnz++
		}
	}
	if err := checkCSRSize(n, nnz); err != nil {
		return nil, err
	}
	rowPtr := make([]int32, n+1)
	for _, e := range entries {
		rowPtr[e.Row+1]++
		if mirror && e.Row != e.Col {
			rowPtr[e.Col+1]++
		}
	}
	longest := int32(0)
	for r := 0; r < n; r++ {
		longest = max(longest, rowPtr[r+1])
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	for _, e := range entries {
		p := rowPtr[e.Row]
		rowPtr[e.Row]++
		colIdx[p], vals[p] = int32(e.Col), e.Val
		if mirror && e.Row != e.Col {
			p := rowPtr[e.Col]
			rowPtr[e.Col]++
			colIdx[p], vals[p] = int32(e.Row), e.Val
		}
	}
	// rowPtr[r] now ends row r, which is where row r+1 starts.
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0

	var scratch []Entry
	if longest > insertionSortMax {
		scratch = make([]Entry, longest)
	}
	w := int32(0)
	for r := 0; r < n; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		rowPtr[r] = w
		if hi-lo > 1 {
			sortRow(colIdx[lo:hi], vals[lo:hi], scratch)
		}
		for k := lo; k < hi; {
			c, v := colIdx[k], vals[k]
			k++
			for k < hi && colIdx[k] == c {
				v += vals[k]
				k++
			}
			if v == 0 {
				continue
			}
			colIdx[w], vals[w] = c, v
			w++
		}
	}
	rowPtr[n] = w
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx[:w], vals: vals[:w]}, nil
}

// insertionSortMax is the longest row sortRow orders by insertion; a
// longer row (a hub node, or a hostile single-row spec) goes through an
// O(d log d) stable sort instead.
const insertionSortMax = 32

// sortRow stably orders one row's parallel (column, value) arrays by
// column. Rows longer than insertionSortMax are sorted through scratch,
// which must then be at least as long as the row.
func sortRow(cols []int32, vals []float64, scratch []Entry) {
	vals = vals[:len(cols)]
	if len(cols) <= insertionSortMax {
		for i := 1; i < len(cols); i++ {
			c, v := cols[i], vals[i]
			j := i
			for ; j > 0 && cols[j-1] > c; j-- {
				cols[j], vals[j] = cols[j-1], vals[j-1]
			}
			cols[j], vals[j] = c, v
		}
		return
	}
	tmp := scratch[:len(cols)]
	for i, c := range cols {
		tmp[i] = Entry{Col: int(c), Val: vals[i]}
	}
	slices.SortStableFunc(tmp, func(a, b Entry) int { return cmp.Compare(a.Col, b.Col) })
	for i, e := range tmp {
		cols[i], vals[i] = int32(e.Col), e.Val
	}
}

// NewCSRFromDense converts a symmetric dense matrix to CSR.
func NewCSRFromDense(m *Matrix) (*CSR, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("%w: NewCSRFromDense needs a square matrix", ErrDimensionMismatch)
	}
	var entries []Entry
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := i; j < m.Cols(); j++ {
			if row[j] != 0 {
				entries = append(entries, Entry{i, j, row[j]})
			}
		}
	}
	return NewCSRSym(m.Rows(), entries)
}

// Order implements Operator.
func (c *CSR) Order() int { return c.n }

// NNZ returns the stored non-zero count (both triangles).
func (c *CSR) NNZ() int { return len(c.vals) }

// Density returns NNZ / n², the stored fraction of the dense matrix —
// the quantity the solver compares against its sparse-selection
// threshold.
func (c *CSR) Density() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(len(c.vals)) / (float64(c.n) * float64(c.n))
}

// Transpose returns a newly allocated Aᵀ. Each result row keeps its
// column indices in increasing order (column j of A is visited in
// increasing row order), preserving the ordered-row invariant the
// bit-identity contract of the kernels depends on.
func (c *CSR) Transpose() *CSR {
	t := &CSR{
		n:      c.n,
		rowPtr: make([]int32, c.n+1),
		colIdx: make([]int32, len(c.colIdx)),
		vals:   make([]float64, len(c.vals)),
	}
	for _, j := range c.colIdx {
		t.rowPtr[j+1]++
	}
	for r := 0; r < c.n; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := append([]int32(nil), t.rowPtr[:c.n]...)
	for r := 0; r < c.n; r++ {
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			j := c.colIdx[k]
			p := next[j]
			next[j]++
			t.colIdx[p] = int32(r)
			t.vals[p] = c.vals[k]
		}
	}
	return t
}

// Apply implements Operator: y = A·x.
func (c *CSR) Apply(x, y []float64) {
	if len(x) != c.n || len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.Apply got %d/%d for order %d", len(x), len(y), c.n))
	}
	for r := 0; r < c.n; r++ {
		sum := 0.0
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			sum += c.vals[k] * x[c.colIdx[k]]
		}
		y[r] = sum
	}
}

// Scan calls fn for every stored entry in row-major, increasing-column
// order — the iteration primitive layers above use to re-bucket entries
// (tile decomposition) without reaching into the representation.
func (c *CSR) Scan(fn func(i, j int, v float64)) {
	for r := 0; r < c.n; r++ {
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			fn(r, int(c.colIdx[k]), c.vals[k])
		}
	}
}

// ScanRow calls fn for every stored entry of row i in increasing-column
// order.
func (c *CSR) ScanRow(i int, fn func(j int, v float64)) {
	for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
		fn(int(c.colIdx[k]), c.vals[k])
	}
}

// At returns element (i,j) by scanning row i (O(log nnz_row)).
func (c *CSR) At(i, j int) float64 {
	lo, hi := int(c.rowPtr[i]), int(c.rowPtr[i+1])
	k := lo + searchIdx(c.colIdx[lo:hi], j)
	if k < hi && int(c.colIdx[k]) == j {
		return c.vals[k]
	}
	return 0
}

// GershgorinRadius is the sparse counterpart of the dense
// GershgorinRadius: max_i Σ_{j≠i} |A_ij|.
func (c *CSR) GershgorinRadius() float64 {
	max := 0.0
	for r := 0; r < c.n; r++ {
		sum := 0.0
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			if int(c.colIdx[k]) == r {
				continue
			}
			if v := c.vals[k]; v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
		if sum > max {
			max = sum
		}
	}
	return max
}
