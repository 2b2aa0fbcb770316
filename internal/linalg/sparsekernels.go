package linalg

import (
	"fmt"
	"math/bits"
)

// This file holds the sparse (CSR) counterparts of the binary and
// incremental MVM kernels in binary.go — the kernels behind the
// sparse-first solve path for instances whose couplings are a few
// percent dense.
//
// Bit-exactness contract (extends the contract in binary.go): every
// kernel here is bit-identical to its dense counterpart on the same
// matrix. Two facts make that hold. First, the terms a CSR kernel skips
// relative to a dense kernel are exactly the zero-valued couplings, and
// for every kernel those terms are exact IEEE-754 ±0 products whose
// addition cannot change an accumulator that is never -0 (see
// binary.go). Second, CSR rows store column indices in increasing
// order, and the transposed copy (CSR.Transpose) stores each column's
// entries in increasing row order — so per output element the surviving
// non-zero terms accumulate in exactly the index order the dense
// kernels use. The popcount kernel (CSRBits) is exact by a different
// argument: for ±1 couplings every partial sum is a small integer, each
// float64 addition of ±1 to an integer below 2⁵³ is exact, so the float
// accumulation equals the integer popcount difference bit for bit.

// ApplyBinary computes y = A·x for a {0,1} input vector (any non-zero
// entry is treated as 1): a row gather that adds the couplings whose
// column has a set spin, with no multiplications. Bit-identical to
// Apply for binary x, and to the dense MulVecBinary/MulVec on the same
// matrix. len(x) and len(y) must equal Order.
func (c *CSR) ApplyBinary(x, y []float64) {
	if len(x) != c.n || len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.ApplyBinary got %d/%d for order %d", len(x), len(y), c.n))
	}
	for r := 0; r < c.n; r++ {
		sum := 0.0
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			if x[c.colIdx[k]] != 0 {
				sum += c.vals[k]
			}
		}
		y[r] = sum
	}
}

// ApplyBinaryRange computes rows [lo, hi) of y = A·x for a {0,1} input
// vector, leaving every other output element untouched. Rows are
// independent in the gather form, so workers owning disjoint row ranges
// compute the exact same values ApplyBinary would — the parallel anchor
// recompute of the colored-update runtime.
func (c *CSR) ApplyBinaryRange(x, y []float64, lo, hi int) {
	if len(x) != c.n || len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.ApplyBinaryRange got %d/%d for order %d", len(x), len(y), c.n))
	}
	if lo < 0 || hi > c.n || lo > hi {
		panic(fmt.Sprintf("linalg: CSR.ApplyBinaryRange rows [%d,%d) outside [0,%d]", lo, hi, c.n))
	}
	for r := lo; r < hi; r++ {
		sum := 0.0
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			if x[c.colIdx[k]] != 0 {
				sum += c.vals[k]
			}
		}
		y[r] = sum
	}
}

// ApplyBinaryT computes y = Aᵀ·x for a {0,1} input vector: a row
// scatter over the rows whose spin is set. Bit-identical to ApplyT for
// binary x, and to the dense MulVecBinaryT. len(x) and len(y) must
// equal Order.
func (c *CSR) ApplyBinaryT(x, y []float64) {
	if len(x) != c.n || len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.ApplyBinaryT got %d/%d for order %d", len(x), len(y), c.n))
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < c.n; i++ {
		if x[i] == 0 {
			continue
		}
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			y[c.colIdx[k]] += c.vals[k]
		}
	}
}

// ApplyT computes y = Aᵀ·x for a general input vector: a row scatter
// skipping zero input elements, mirroring the dense MulVecT
// bit-identically (contributions to each output element arrive in
// increasing row order). len(x) and len(y) must equal Order.
func (c *CSR) ApplyT(x, y []float64) {
	if len(x) != c.n || len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.ApplyT got %d/%d for order %d", len(x), len(y), c.n))
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < c.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			y[c.colIdx[k]] += c.vals[k] * xi
		}
	}
}

// AccumulateFlip applies y += sign · row j of A in place — the
// adjacency-list incremental update for "spin j flipped by sign". On a
// symmetric CSR row j equals column j, so this patches a product
// y = A·x in O(degree(j)) instead of the dense AccumulateColumn's O(n);
// on a general (tile-block) CSR it is the transposed-product patch
// (column j of Aᵀ is row j of A), the sparse AccumulateRow. sign values
// of exactly ±1 take a multiply-free path bit-identical to the general
// one; both are bit-identical to the dense accumulate kernels.
func (c *CSR) AccumulateFlip(y []float64, j int, sign float64) {
	if len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.AccumulateFlip y has length %d, want %d", len(y), c.n))
	}
	if j < 0 || j >= c.n {
		panic(fmt.Sprintf("linalg: CSR.AccumulateFlip spin %d outside [0,%d)", j, c.n))
	}
	lo, hi := c.rowPtr[j], c.rowPtr[j+1]
	cols, vals := c.colIdx[lo:hi], c.vals[lo:hi]
	switch sign {
	case 1:
		for k, cc := range cols {
			y[cc] += vals[k]
		}
	case -1:
		for k, cc := range cols {
			y[cc] -= vals[k]
		}
	default:
		for k, cc := range cols {
			y[cc] += sign * vals[k]
		}
	}
}

// AccumulateFlipRange is AccumulateFlip restricted to output elements
// in [lo, hi): it patches only y[lo:hi] (indices in the full output
// space), leaving every other element untouched. Disjoint ranges touch
// disjoint memory, so workers owning disjoint ranges can apply the same
// flip sequence concurrently — the colored-update runtime's
// deterministic parallel flip application. Per element the additions
// happen in the same order AccumulateFlip would apply them.
func (c *CSR) AccumulateFlipRange(y []float64, j int, sign float64, lo, hi int) {
	if len(y) != c.n {
		panic(fmt.Sprintf("linalg: CSR.AccumulateFlipRange y has length %d, want %d", len(y), c.n))
	}
	if j < 0 || j >= c.n {
		panic(fmt.Sprintf("linalg: CSR.AccumulateFlipRange spin %d outside [0,%d)", j, c.n))
	}
	rs, re := int(c.rowPtr[j]), int(c.rowPtr[j+1])
	row := c.colIdx[rs:re]
	a := searchIdx(row, lo)
	b := searchIdx(row, hi)
	cols, vals := row[a:b], c.vals[rs+a:rs+b]
	switch sign {
	case 1:
		for k, cc := range cols {
			y[cc] += vals[k]
		}
	case -1:
		for k, cc := range cols {
			y[cc] -= vals[k]
		}
	default:
		for k, cc := range cols {
			y[cc] += sign * vals[k]
		}
	}
}

// searchIdx returns the smallest index i with a[i] >= v over a row's
// int32 column indices (a sort.SearchInts without the interface
// indirection; row slices are hot-path).
func searchIdx(a []int32, v int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(a[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BitVec is a bit-packed {0,1} spin vector: one bit per spin, bit i of
// word i/64. It is the input form of the popcount MVM kernel
// (CSRBits.ApplyBinary) — 64 spins per machine word instead of 64
// bytes of float64.
type BitVec []uint64

// NewBitVec allocates a bit vector holding n spins.
func NewBitVec(n int) BitVec { return make(BitVec, (n+63)/64) }

// Pack fills the bit vector from a {0,1} float vector (any non-zero
// entry sets the bit). len(x) must not exceed 64·len(b).
func (b BitVec) Pack(x []float64) {
	for w := range b {
		b[w] = 0
	}
	for i, v := range x {
		if v != 0 {
			b[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Get reports whether bit i is set.
func (b BitVec) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// CSRBits is the popcount form of a CSR matrix whose couplings are all
// exactly ±1 (unit-weight and PM1 graph reductions — the bulk of the
// GSET-style workloads): per row, the ±1 entries are grouped by spin
// word into positive and negative bit masks, so a binary MVM row is a
// handful of AND+popcount operations instead of a float gather.
type CSRBits struct {
	n      int
	rowPtr []int32  // into words/pos/neg, one range per row
	words  []int32  // spin-word index of each mask pair
	pos    []uint64 // mask of +1 couplings in that word
	neg    []uint64 // mask of -1 couplings in that word
}

// NewCSRBits builds the popcount form of c. It returns (nil, false)
// when any stored value is not exactly ±1 — callers fall back to the
// float kernels, which the bit-identity contract makes safe at any
// time.
func NewCSRBits(c *CSR) (*CSRBits, bool) {
	for _, v := range c.vals {
		//sophielint:ignore floateq ±1 detection is an exact representability test selecting the integer kernel, not a tolerance comparison
		if v != 1 && v != -1 {
			return nil, false
		}
	}
	b := &CSRBits{n: c.n, rowPtr: make([]int32, c.n+1)}
	for r := 0; r < c.n; r++ {
		lastWord := int32(-1)
		for k := c.rowPtr[r]; k < c.rowPtr[r+1]; k++ {
			w := c.colIdx[k] >> 6
			if w != lastWord {
				b.words = append(b.words, w)
				b.pos = append(b.pos, 0)
				b.neg = append(b.neg, 0)
				lastWord = w
			}
			mask := uint64(1) << (uint(c.colIdx[k]) & 63)
			if c.vals[k] > 0 {
				b.pos[len(b.pos)-1] |= mask
			} else {
				b.neg[len(b.neg)-1] |= mask
			}
		}
		b.rowPtr[r+1] = int32(len(b.words))
	}
	return b, true
}

// Order returns the matrix order.
func (b *CSRBits) Order() int { return b.n }

// ApplyBinary computes y = A·x over a bit-packed spin vector: each row
// is a word-parallel popcount of the positive masks minus the negative
// masks. Every partial sum is an integer of magnitude at most the row
// degree, so the result is bit-identical to the float gather
// CSR.ApplyBinary on the same ±1 matrix (exact integer arithmetic is
// order-independent). len(y) must equal Order; x must cover Order bits.
func (b *CSRBits) ApplyBinary(x BitVec, y []float64) {
	if len(y) != b.n {
		panic(fmt.Sprintf("linalg: CSRBits.ApplyBinary y has length %d, want %d", len(y), b.n))
	}
	if 64*len(x) < b.n {
		panic(fmt.Sprintf("linalg: CSRBits.ApplyBinary x has %d bits, want >= %d", 64*len(x), b.n))
	}
	for r := 0; r < b.n; r++ {
		sum := 0
		for k := b.rowPtr[r]; k < b.rowPtr[r+1]; k++ {
			w := x[b.words[k]]
			sum += bits.OnesCount64(b.pos[k]&w) - bits.OnesCount64(b.neg[k]&w)
		}
		y[r] = float64(sum)
	}
}
