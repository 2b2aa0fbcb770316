package linalg

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestNewCSRSymBasics(t *testing.T) {
	c, err := NewCSRSym(3, []Entry{
		{0, 1, 2},
		{1, 2, -1},
		{2, 2, 5}, // diagonal
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Order() != 3 {
		t.Fatalf("order %d", c.Order())
	}
	// 2 off-diagonal entries mirrored (4) + 1 diagonal = 5 nonzeros.
	if c.NNZ() != 5 {
		t.Fatalf("nnz %d, want 5", c.NNZ())
	}
	if c.At(0, 1) != 2 || c.At(1, 0) != 2 {
		t.Fatal("symmetric mirroring failed")
	}
	if c.At(2, 2) != 5 {
		t.Fatal("diagonal lost")
	}
	if c.At(0, 2) != 0 {
		t.Fatal("absent entry must read 0")
	}
}

func TestNewCSRSymDuplicatesAndValidation(t *testing.T) {
	c, err := NewCSRSym(2, []Entry{{0, 1, 1}, {1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// (0,1,1) mirrors to (1,0,1); (1,0,2) mirrors to (0,1,2): sum = 3.
	if c.At(0, 1) != 3 {
		t.Fatalf("duplicate accumulation got %v, want 3", c.At(0, 1))
	}
	if _, err := NewCSRSym(2, []Entry{{0, 5, 1}}); err == nil {
		t.Fatal("out-of-range entry must be rejected")
	}
	if _, err := NewCSRSym(-1, nil); err == nil {
		t.Fatal("negative order must be rejected")
	}
}

// TestCSRIndexLimit pins the int32 index guard: an order or non-zero
// count past math.MaxInt32 is an error, never a silently wrapped index.
// The order check runs before anything is allocated.
func TestCSRIndexLimit(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed math.MaxInt32 on this platform")
	}
	over := math.MaxInt32
	over++
	if _, err := NewCSRSym(over, nil); err == nil {
		t.Fatal("NewCSRSym accepted an order past the int32 limit")
	}
	if _, err := NewCSRGeneral(over, nil); err == nil {
		t.Fatal("NewCSRGeneral accepted an order past the int32 limit")
	}
	if err := checkCSRSize(10, over); err == nil {
		t.Fatal("a non-zero count past the int32 limit was accepted")
	}
	if err := checkCSRSize(math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("the int32 limit itself must be accepted: %v", err)
	}
}

func TestCSRZeroEntriesDropped(t *testing.T) {
	c, err := NewCSRSym(2, []Entry{{0, 1, 1}, {0, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Fatalf("cancelled entries kept: nnz %d", c.NNZ())
	}
}

func TestCSRApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dense := randomSym(20, rng)
	// Sparsify: zero out ~70%.
	for i := 0; i < 20; i++ {
		for j := i; j < 20; j++ {
			if rng.Float64() < 0.7 {
				dense.Set(i, j, 0)
				dense.Set(j, i, 0)
			}
		}
	}
	csr, err := NewCSRFromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, _ := dense.MulVec(x, nil)
	got := make([]float64, 20)
	csr.Apply(x, got)
	for i := range got {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("Apply[%d] = %v, dense %v", i, got[i], want[i])
		}
	}
	// Gershgorin radius must match the dense computation.
	dr, _ := GershgorinRadius(dense)
	if !almostEqual(csr.GershgorinRadius(), dr, 1e-12) {
		t.Fatalf("sparse Gershgorin %v, dense %v", csr.GershgorinRadius(), dr)
	}
}

func TestCSRApplyPanicsOnBadShape(t *testing.T) {
	c, _ := NewCSRSym(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Apply(make([]float64, 2), make([]float64, 3))
}

func TestAsOperatorValidation(t *testing.T) {
	if _, err := AsOperator(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix must be rejected")
	}
	op, err := AsOperator(NewMatrix(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if op.Order() != 2 {
		t.Fatal("dense operator order wrong")
	}
}

func TestEigenSymTopKOpSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dense := randomSym(25, rng)
	csr, err := NewCSRFromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	dv, _, err := EigenSymTopK(dense, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	sv, _, err := EigenSymTopKOp(csr, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dv {
		if !almostEqual(dv[i], sv[i], 1e-8*(1+math.Abs(dv[i]))) {
			t.Fatalf("sparse/dense eigenvalue %d: %v vs %v", i, sv[i], dv[i])
		}
	}
}

func TestPRISTransformRankSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dense := randomSym(18, rng)
	csr, err := NewCSRFromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PRISTransformRank(dense, 0, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PRISTransformRankSparse(csr, 0, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if !almostEqual(a.Data()[i], b.Data()[i], 1e-8*(1+a.MaxAbs())) {
			t.Fatalf("sparse transform differs at %d: %v vs %v", i, b.Data()[i], a.Data()[i])
		}
	}
	if _, err := PRISTransformRankSparse(csr, 2, 4, 1); err == nil {
		t.Fatal("bad alpha must be rejected")
	}
}

// BenchmarkNewCSRSym builds the CSR of a 20k-node cubic graph: a ring
// plus a random perfect matching, 30k edges mirrored to 60k entries.
func BenchmarkNewCSRSym(b *testing.B) {
	const n = 20_000
	rng := rand.New(rand.NewSource(19))
	perm := rng.Perm(n)
	entries := make([]Entry, 0, 3*n/2)
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{Row: i, Col: (i + 1) % n, Val: 1})
	}
	for i := 0; i < n; i += 2 {
		entries = append(entries, Entry{Row: perm[i], Col: perm[i+1], Val: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCSRSym(n, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSRApply(b *testing.B) {
	// A GSET-like sparse operator: 2000 nodes, ~20k edges.
	rng := rand.New(rand.NewSource(22))
	entries := make([]Entry, 0, 20000)
	for len(entries) < 20000 {
		u, v := rng.Intn(2000), rng.Intn(2000)
		if u != v {
			entries = append(entries, Entry{u, v, 1})
		}
	}
	c, err := NewCSRSym(2000, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 2000)
	y := make([]float64, 2000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(x, y)
	}
}
