package linalg

import (
	"fmt"
	"math"
	"sort"
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
// Construction is a sort-and-merge build: the mirrored entry list is
// sorted by (row, col) with a stable sort and adjacent duplicates are
// summed in input order — the same accumulation order the previous
// map-based build used, without the map's allocation cost, which
// dominated million-edge constructions now that CSR sits on the hot
// solve path.
func NewCSRSym(n int, entries []Entry) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("linalg: negative CSR order %d", n)
	}
	if err := checkCSRSize(n, 0); err != nil {
		return nil, err
	}
	all := make([]Entry, 0, 2*len(entries))
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("linalg: CSR entry (%d,%d) out of range for order %d", e.Row, e.Col, n)
		}
		all = append(all, e)
		if e.Row != e.Col {
			all = append(all, Entry{Row: e.Col, Col: e.Row, Val: e.Val})
		}
	}
	return buildCSR(n, all)
}

// NewCSRGeneral builds a square CSR matrix of order n from coordinate
// entries without symmetrization: only the listed coordinates are
// stored. Duplicate coordinates are summed in input order; zero sums
// are dropped. The tiling layer uses it for the off-diagonal tile
// blocks of a symmetric matrix, which are square but not symmetric.
func NewCSRGeneral(n int, entries []Entry) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("linalg: negative CSR order %d", n)
	}
	if err := checkCSRSize(n, 0); err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("linalg: CSR entry (%d,%d) out of range for order %d", e.Row, e.Col, n)
		}
	}
	return buildCSR(n, append([]Entry(nil), entries...))
}

// buildCSR assembles a CSR from validated entries: stable-sort by
// (row, col), sum adjacent duplicates (stability keeps the summation in
// input order, so duplicate handling rounds exactly as the old
// map-accumulator build did), drop zero sums. It takes ownership of
// entries and reorders it. n must already have passed checkCSRSize; the
// merged non-zero count is checked before the row counts are summed
// into int32 pointers.
func buildCSR(n int, entries []Entry) (*CSR, error) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	m := &CSR{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, 0, len(entries)),
		vals:   make([]float64, 0, len(entries)),
	}
	for k := 0; k < len(entries); {
		r, c, v := entries[k].Row, entries[k].Col, entries[k].Val
		k++
		for k < len(entries) && entries[k].Row == r && entries[k].Col == c {
			v += entries[k].Val
			k++
		}
		if v == 0 {
			continue
		}
		m.colIdx = append(m.colIdx, int32(c))
		m.vals = append(m.vals, v)
		m.rowPtr[r+1]++
	}
	if err := checkCSRSize(n, len(m.vals)); err != nil {
		return nil, err
	}
	for r := 0; r < n; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m, nil
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
