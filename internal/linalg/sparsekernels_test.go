package linalg

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomSparseSym builds a random symmetric matrix of order n with
// roughly the given off-diagonal density, returned in both dense and
// CSR form. unit selects ±1 couplings (the popcount-eligible case)
// instead of Gaussian ones.
func randomSparseSym(t testing.TB, n int, density float64, unit bool, rng *rand.Rand) (*Matrix, *CSR) {
	t.Helper()
	dense := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			if unit {
				v = 1
				if rng.Intn(2) == 0 {
					v = -1
				}
			}
			dense.Set(i, j, v)
			dense.Set(j, i, v)
		}
	}
	csr, err := NewCSRFromDense(dense)
	if err != nil {
		t.Fatal(err)
	}
	return dense, csr
}

func requireBitsEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d bits differ: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestCSRKernelsBitIdenticalToDense is the satellite property test: on
// random symmetric matrices across densities {1%, 10%, 50%}, every CSR
// kernel must reproduce its dense counterpart bit for bit — Apply ≡
// MulVec, ApplyT ≡ MulVecT, ApplyBinary ≡ MulVecBinary, ApplyBinaryT ≡
// MulVecBinaryT.
func TestCSRKernelsBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, density := range []float64{0.01, 0.10, 0.50} {
		for trial := 0; trial < 8; trial++ {
			n := 20 + rng.Intn(60)
			dense, csr := randomSparseSym(t, n, density, trial%2 == 0, rng)

			xf := make([]float64, n)
			for i := range xf {
				xf[i] = rng.NormFloat64()
			}
			xb := randomBinary(rng, n)
			got := make([]float64, n)

			want, _ := dense.MulVec(xf, nil)
			csr.Apply(xf, got)
			requireBitsEqual(t, "Apply vs MulVec", want, got)

			want, _ = dense.MulVecT(xf, nil)
			csr.ApplyT(xf, got)
			requireBitsEqual(t, "ApplyT vs MulVecT", want, got)

			want, _ = dense.MulVecBinary(xb, nil)
			csr.ApplyBinary(xb, got)
			requireBitsEqual(t, "ApplyBinary vs MulVecBinary", want, got)

			want, _ = dense.MulVecBinaryT(xb, nil)
			csr.ApplyBinaryT(xb, got)
			requireBitsEqual(t, "ApplyBinaryT vs MulVecBinaryT", want, got)
		}
	}
}

// TestCSRGeneralKernelsOnAsymmetricBlocks covers the tile-block shape:
// a square but non-symmetric CSR (NewCSRGeneral) must still match the
// dense kernels bitwise in both directions.
func TestCSRGeneralKernelsOnAsymmetricBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	n := 48
	dense := NewMatrix(n, n)
	var entries []Entry
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.08 {
				v := rng.NormFloat64()
				dense.Set(i, j, v)
				entries = append(entries, Entry{i, j, v})
			}
		}
	}
	csr, err := NewCSRGeneral(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	xf := make([]float64, n)
	for i := range xf {
		xf[i] = rng.NormFloat64()
	}
	xb := randomBinary(rng, n)
	got := make([]float64, n)

	want, _ := dense.MulVec(xf, nil)
	csr.Apply(xf, got)
	requireBitsEqual(t, "general Apply", want, got)

	want, _ = dense.MulVecT(xf, nil)
	csr.ApplyT(xf, got)
	requireBitsEqual(t, "general ApplyT", want, got)

	want, _ = dense.MulVecBinary(xb, nil)
	csr.ApplyBinary(xb, got)
	requireBitsEqual(t, "general ApplyBinary", want, got)

	want, _ = dense.MulVecBinaryT(xb, nil)
	csr.ApplyBinaryT(xb, got)
	requireBitsEqual(t, "general ApplyBinaryT", want, got)

	// Transpose round trip: T(A)[j][i] == A[i][j], rows sorted.
	tr := csr.Transpose()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(tr.At(j, i)) != math.Float64bits(csr.At(i, j)) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	for r := 0; r < n; r++ {
		lo, hi := tr.rowPtr[r], tr.rowPtr[r+1]
		if !slices.IsSorted(tr.colIdx[lo:hi]) {
			t.Fatalf("transpose row %d not sorted", r)
		}
	}
}

// TestGershgorinRadiusGolden pins the sparse GershgorinRadius equal —
// bit for bit — to the dense computation on random symmetric instances
// (the satellite doc-fix task's regression guard).
func TestGershgorinRadiusGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		dense, csr := randomSparseSym(t, n, 0.15, trial%2 == 0, rng)
		// Plant diagonal entries: the radius must exclude them.
		for i := 0; i < n; i += 3 {
			dense.Set(i, i, rng.NormFloat64())
		}
		withDiag, err := NewCSRFromDense(dense)
		if err != nil {
			t.Fatal(err)
		}
		want, err := GershgorinRadius(dense)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*CSR{csr, withDiag} {
			if math.Float64bits(c.GershgorinRadius()) != math.Float64bits(want) {
				t.Fatalf("trial %d: sparse Gershgorin %v, dense %v", trial, c.GershgorinRadius(), want)
			}
		}
	}
}

// TestNewCSRSymMatchesMapBuild pins the sort-and-merge construction
// against a reference map-accumulator build on random entry lists with
// duplicates and cancellations: identical structure and values.
func TestNewCSRSymMatchesMapBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		entries := make([]Entry, rng.Intn(120))
		for i := range entries {
			entries[i] = Entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: float64(rng.Intn(7) - 3)}
		}
		got, err := NewCSRSym(n, entries)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the old map-accumulator semantics.
		type coord struct{ r, c int }
		acc := make(map[coord]float64)
		for _, e := range entries {
			acc[coord{e.Row, e.Col}] += e.Val
			if e.Row != e.Col {
				acc[coord{e.Col, e.Row}] += e.Val
			}
		}
		nnz := 0
		for k, v := range acc {
			if v == 0 {
				continue
			}
			nnz++
			if math.Float64bits(got.At(k.r, k.c)) != math.Float64bits(v) {
				t.Fatalf("trial %d: entry (%d,%d) = %v, want %v", trial, k.r, k.c, got.At(k.r, k.c), v)
			}
		}
		if got.NNZ() != nnz {
			t.Fatalf("trial %d: nnz %d, want %d", trial, got.NNZ(), nnz)
		}
		// Structural invariant: rows sorted, rowPtr consistent.
		for r := 0; r < n; r++ {
			lo, hi := got.rowPtr[r], got.rowPtr[r+1]
			if !slices.IsSorted(got.colIdx[lo:hi]) {
				t.Fatalf("trial %d: row %d not sorted", trial, r)
			}
		}
	}
}

// buildCSRSorted is the comparison-sort builder buildCSR replaced, kept
// as its oracle: stable-sort by (row, col), sum adjacent duplicates in
// input order, drop zero sums.
func buildCSRSorted(n int, entries []Entry) *CSR {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	m := &CSR{n: n, rowPtr: make([]int32, n+1)}
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
	for r := 0; r < n; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// TestBuildCSRMatchesSortBuild pins the counting build, plain and
// mirrored, against the sort-based oracle bit for bit: random entry
// lists in shuffled order with duplicates that sum in a
// rounding-sensitive order and duplicates that cancel to zero, rows on
// both sides of insertionSortMax, and one reversed 10⁵-entry row (the
// stable-sort path; insertion sort would be quadratic there). The build
// must leave its input untouched.
func TestBuildCSRMatchesSortBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	check := func(label string, n int, entries []Entry) {
		t.Helper()
		input := slices.Clone(entries)
		var mirrored []Entry
		for _, e := range entries {
			mirrored = append(mirrored, e)
			if e.Row != e.Col {
				mirrored = append(mirrored, Entry{Row: e.Col, Col: e.Row, Val: e.Val})
			}
		}
		for _, mirror := range []bool{false, true} {
			oracle := entries
			if mirror {
				oracle = mirrored
			}
			want := buildCSRSorted(n, slices.Clone(oracle))
			got, err := buildCSR(n, input, mirror)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(input, entries) {
				t.Fatalf("%s: buildCSR modified its input", label)
			}
			if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) {
				t.Fatalf("%s mirror=%v: structure differs from the sort-based build", label, mirror)
			}
			requireBitsEqual(t, label, want.vals, got.vals)
		}
	}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		entries := make([]Entry, rng.Intn(50*n))
		for i := range entries {
			v := rng.NormFloat64()
			switch rng.Intn(3) {
			case 0:
				v = float64(rng.Intn(5) - 2) // exact sums, some cancel to zero
			case 1:
				v *= 1e16 // large magnitudes: the summation order shows in the bits
			}
			entries[i] = Entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: v}
		}
		for i := range entries {
			if rng.Intn(4) == 0 { // a cancelling duplicate
				e := entries[i]
				e.Val = -e.Val
				entries = append(entries, e)
			}
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		check("random", n, entries)
	}
	const d = 100_000
	row := make([]Entry, d)
	for i := range row {
		row[i] = Entry{Row: 3, Col: (d - 1 - i) / 3, Val: rng.NormFloat64() * float64(int64(1)<<(i%4*20))}
	}
	check("reversed-row", d, row)
}

// TestAccumulateFlipBitIdentical checks the adjacency flip patch
// against the dense AccumulateColumn/AccumulateRow kernels, including
// the ±1 multiply-free paths and a fractional sign.
func TestAccumulateFlipBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	n := 40
	dense, csr := randomSparseSym(t, n, 0.12, false, rng)
	tr := csr.Transpose()
	for _, sign := range []float64{1, -1, 0.5} {
		for j := 0; j < n; j += 5 {
			want := make([]float64, n)
			got := make([]float64, n)
			for i := range want {
				want[i] = rng.NormFloat64()
				got[i] = want[i]
			}
			if err := dense.AccumulateColumn(want, j, sign); err != nil {
				t.Fatal(err)
			}
			// Column j of a CSR is row j of its transpose; for the
			// symmetric matrix both equal row j.
			tr.AccumulateFlip(got, j, sign)
			requireBitsEqual(t, "AccumulateFlip vs AccumulateColumn", want, got)

			want2 := append([]float64(nil), want...)
			got2 := append([]float64(nil), got...)
			if err := dense.AccumulateRow(want2, j, sign); err != nil {
				t.Fatal(err)
			}
			csr.AccumulateFlip(got2, j, sign)
			requireBitsEqual(t, "AccumulateFlip vs AccumulateRow", want2, got2)
		}
	}
}

// TestAccumulateFlipRangeCoversFlip checks that range-restricted
// patches over a disjoint partition of the output space compose to the
// full AccumulateFlip, for arbitrary cut points.
func TestAccumulateFlipRangeCoversFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	n := 50
	_, csr := randomSparseSym(t, n, 0.2, false, rng)
	for j := 0; j < n; j += 7 {
		want := make([]float64, n)
		got := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
			got[i] = want[i]
		}
		csr.AccumulateFlip(want, j, -1)
		cuts := []int{0, 1 + rng.Intn(n-1), n}
		sort.Ints(cuts)
		for k := 0; k+1 < len(cuts); k++ {
			csr.AccumulateFlipRange(got, j, -1, cuts[k], cuts[k+1])
		}
		requireBitsEqual(t, "range partition", want, got)
	}
}

// TestCSRBitsMatchesFloatGather pins the popcount kernel against the
// float binary gather on ±1 matrices, and its refusal on general ones.
func TestCSRBitsMatchesFloatGather(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(100)
		_, csr := randomSparseSym(t, n, 0.1, true, rng)
		bitsForm, ok := NewCSRBits(csr)
		if !ok {
			t.Fatal("±1 matrix rejected by NewCSRBits")
		}
		if bitsForm.Order() != n {
			t.Fatalf("order %d, want %d", bitsForm.Order(), n)
		}
		xb := randomBinary(rng, n)
		packed := NewBitVec(n)
		packed.Pack(xb)
		for i, v := range xb {
			if packed.Get(i) != (v != 0) {
				t.Fatalf("bit %d packed wrong", i)
			}
		}
		want := make([]float64, n)
		got := make([]float64, n)
		csr.ApplyBinary(xb, want)
		bitsForm.ApplyBinary(packed, got)
		requireBitsEqual(t, "CSRBits.ApplyBinary", want, got)
	}

	_, general := randomSparseSym(t, 20, 0.3, false, rng)
	if general.NNZ() == 0 {
		t.Fatal("test premise broken: empty matrix")
	}
	if _, ok := NewCSRBits(general); ok {
		t.Fatal("non-±1 matrix must be rejected")
	}
}

// TestGreedyColoringInvariant checks the coloring contract: classes
// partition the vertices, no two vertices of one class are adjacent,
// and the class count respects the degree bound.
func TestGreedyColoringInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(80)
		_, csr := randomSparseSym(t, n, 0.08, true, rng)
		classes := csr.GreedyColoring()
		seen := make([]int, n)
		maxDeg := 0
		for r := 0; r < n; r++ {
			if d := int(csr.rowPtr[r+1] - csr.rowPtr[r]); d > maxDeg {
				maxDeg = d
			}
		}
		if len(classes) > maxDeg+1 {
			t.Fatalf("%d classes for max degree %d", len(classes), maxDeg)
		}
		for ci, class := range classes {
			if !sort.IntsAreSorted(class) {
				t.Fatalf("class %d not sorted", ci)
			}
			for _, v := range class {
				seen[v]++
			}
			for _, v := range class {
				for _, u := range class {
					if u != v && csr.At(u, v) != 0 {
						t.Fatalf("class %d holds adjacent vertices %d,%d", ci, u, v)
					}
				}
			}
		}
		for v, count := range seen {
			if count != 1 {
				t.Fatalf("vertex %d colored %d times", v, count)
			}
		}
	}
}
