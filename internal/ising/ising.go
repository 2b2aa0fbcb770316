// Package ising defines the Ising model abstraction shared by all
// solvers: the coupling matrix K and Hamiltonian of Eq. 1, conversions
// between the {0,1} spin encoding used by PRIS/SOPHIE and the ±1 physics
// encoding, and the max-cut reduction (Section II-B). Every other
// problem reaches the model through the compiler in internal/problem.
package ising

import (
	"fmt"
	"math"

	"sophie/internal/graph"
	"sophie/internal/linalg"
)

// Model is an Ising model H = -½ Σ σᵢKᵢⱼσⱼ - Σ hᵢσᵢ over spins
// σ ∈ {-1,+1}ᴺ with a symmetric coupling matrix K whose diagonal is
// zero and an optional linear bias (external field) h. The couplings
// live either densely (NewModel) or in CSR form (NewModelCSR) —
// sparse-built models never materialize the n×n matrix, which is what
// makes million-spin instances representable, and every energy computed
// over them is bit-identical to the dense evaluation of the same
// couplings (skipped zero terms are exact ±0 additions; see the linalg
// bit-exactness contract).
//
// The field is what lets the problem compiler (internal/problem) lower
// QUBOs and penalty reductions without ancilla spins: a nil h selects
// exactly the pre-field code in every energy walk and in the solver
// datapath (the field enters the recurrence purely as a per-node
// threshold shift, see internal/pris), so field-free models — max-cut
// in particular — are bit-identical to the pre-field implementation.
type Model struct {
	n  int
	k  *linalg.Matrix // dense couplings; nil for sparse-built models
	ks *linalg.CSR    // sparse couplings; set only by sparse construction
	h  []float64      // linear bias hᵢ; nil means no external field
}

// NewModel wraps a symmetric coupling matrix. The diagonal is zeroed
// (self-coupling only shifts the energy by a constant). It returns an
// error if k is not square or not symmetric.
func NewModel(k *linalg.Matrix) (*Model, error) {
	if k.Rows() != k.Cols() {
		return nil, fmt.Errorf("ising: coupling matrix must be square, got %dx%d", k.Rows(), k.Cols())
	}
	if !k.IsSymmetric(1e-9 * (1 + k.MaxAbs())) {
		return nil, fmt.Errorf("ising: coupling matrix must be symmetric")
	}
	c := k.Clone()
	for i := 0; i < c.Rows(); i++ {
		c.Set(i, i, 0)
	}
	return &Model{n: c.Rows(), k: c}, nil
}

// NewModelCSR wraps a symmetric CSR coupling matrix without densifying
// it. Diagonal entries are dropped (self-coupling only shifts the
// energy by a constant); symmetry is checked with the same relative
// tolerance as NewModel. The model retains k, which must not change
// afterwards.
func NewModelCSR(k *linalg.CSR) (*Model, error) {
	n := k.Order()
	maxAbs := 0.0
	hasDiag := false
	k.Scan(func(i, j int, v float64) {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		if i == j {
			hasDiag = true
		}
	})
	tol := 1e-9 * (1 + maxAbs)
	var asym error
	k.Scan(func(i, j int, v float64) {
		if asym != nil || i == j {
			return
		}
		if math.Abs(v-k.At(j, i)) > tol {
			asym = fmt.Errorf("ising: coupling matrix must be symmetric: K[%d][%d]=%v, K[%d][%d]=%v", i, j, v, j, i, k.At(j, i))
		}
	})
	if asym != nil {
		return nil, asym
	}
	if hasDiag {
		entries := make([]linalg.Entry, 0, k.NNZ())
		k.Scan(func(i, j int, v float64) {
			if i != j {
				entries = append(entries, linalg.Entry{Row: i, Col: j, Val: v})
			}
		})
		clean, err := linalg.NewCSRGeneral(n, entries)
		if err != nil {
			return nil, err
		}
		k = clean
	}
	return &Model{n: n, ks: k}, nil
}

// FromMaxCut builds the Ising model whose ground state solves max-cut on
// g: K = -A so that minimizing H maximizes the cut.
func FromMaxCut(g *graph.Graph) *Model {
	m, err := NewModel(g.CouplingMatrix())
	if err != nil {
		panic(err) // coupling matrices from graphs are symmetric by construction
	}
	return m
}

// FromMaxCutCSR is FromMaxCut over the CSR coupling form: the model is
// built straight from the graph's edge list, never allocating the dense
// matrix — the constructor for instances too large to densify.
func FromMaxCutCSR(g *graph.Graph) *Model {
	m, err := NewModelCSR(g.CouplingCSR())
	if err != nil {
		panic(err) // coupling matrices from graphs are symmetric by construction
	}
	return m
}

// WithField returns a model sharing this model's couplings with the
// external field h installed: H gains the -Σ hᵢσᵢ term, and the solver
// datapath shifts node i's threshold by -hᵢ/2 (internal/pris). The
// slice is copied; a nil or all-omitted h is rejected to keep "no
// field" spelled one way (the nil field of the base constructors).
func (m *Model) WithField(h []float64) (*Model, error) {
	if len(h) != m.n {
		return nil, fmt.Errorf("ising: field has %d entries for %d spins", len(h), m.n)
	}
	for i, v := range h {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ising: field[%d] = %v is not finite", i, v)
		}
	}
	out := *m
	out.h = append([]float64(nil), h...)
	return &out, nil
}

// Field returns the external field, or nil when the model has none.
// Callers must not modify the slice.
func (m *Model) Field() []float64 { return m.h }

// HasField reports whether the model carries a linear bias term.
func (m *Model) HasField() bool { return m.h != nil }

// N returns the number of spins.
func (m *Model) N() int { return m.n }

// HasDense reports whether the model carries dense couplings.
// Sparse-built models (NewModelCSR, FromMaxCutCSR) do not, and can only
// run on the sparse solver datapath.
func (m *Model) HasDense() bool { return m.k != nil }

// Coupling returns the dense coupling matrix. Callers must not modify
// it. It panics on a sparse-built model — use Sparse there.
func (m *Model) Coupling() *linalg.Matrix {
	if m.k == nil {
		panic("ising: sparse-built model has no dense coupling matrix; use Sparse")
	}
	return m.k
}

// Sparse returns the couplings in CSR form: the retained matrix for
// sparse-built models, or a fresh conversion for dense-built ones.
// Callers must not modify the result.
func (m *Model) Sparse() (*linalg.CSR, error) {
	if m.ks != nil {
		return m.ks, nil
	}
	return linalg.NewCSRFromDense(m.k)
}

// Energy evaluates the Hamiltonian H = -½ Σ σᵢKᵢⱼσⱼ - Σ hᵢσᵢ (Eq. 1
// plus the optional linear bias) for ±1 spins. With no field the
// arithmetic is exactly the field-free walk — no extra terms, not even
// exact zeros — preserving bit-identity with pre-field results.
func (m *Model) Energy(spins []int8) float64 {
	if len(spins) != m.N() {
		panic(fmt.Sprintf("ising: Energy got %d spins for %d-spin model", len(spins), m.N()))
	}
	h := 0.0
	if m.k == nil {
		// Sparse walk: the stored upper-triangle entries are exactly the
		// non-zero terms of the dense loop below, visited in the same
		// row-major order, so the sum is bit-identical.
		m.ks.Scan(func(i, j int, v float64) {
			if j > i {
				h += float64(spins[i]) * v * float64(spins[j])
			}
		})
		return -h - m.fieldEnergy(spins)
	}
	n := m.N()
	for i := 0; i < n; i++ {
		row := m.k.Row(i)
		si := float64(spins[i])
		for j := i + 1; j < n; j++ {
			h += si * row[j] * float64(spins[j])
		}
	}
	// -½ Σ_{i,j} = -Σ_{i<j} by symmetry
	return -h - m.fieldEnergy(spins)
}

// fieldEnergy returns Σ hᵢσᵢ, or exactly 0.0 for field-free models so
// `-h - 0` reproduces the pre-field `-h` bit for bit (x - 0 == x for
// every float64 x, including -0: -0 - 0 = -0).
func (m *Model) fieldEnergy(spins []int8) float64 {
	if m.h == nil {
		return 0
	}
	e := 0.0
	for i, hi := range m.h {
		e += hi * float64(spins[i])
	}
	return e
}

// EnergyDelta returns the energy change from flipping spin i, computed in
// O(N) without re-evaluating the full Hamiltonian. Flipping σᵢ changes H
// by 2·σᵢ·(Σⱼ Kᵢⱼσⱼ + hᵢ). Field-free models skip the hᵢ addition
// entirely, keeping the accumulation bit-identical to pre-field code.
func (m *Model) EnergyDelta(spins []int8, i int) float64 {
	field := 0.0
	if m.k == nil {
		// O(degree) row scan, bit-identical to the dense O(N) loop: the
		// skipped couplings contribute exact ±0 terms.
		m.ks.ScanRow(i, func(j int, v float64) {
			field += v * float64(spins[j])
		})
		if m.h != nil {
			field += m.h[i]
		}
		return 2 * float64(spins[i]) * field
	}
	row := m.k.Row(i)
	for j, kij := range row {
		field += kij * float64(spins[j])
	}
	if m.h != nil {
		field += m.h[i]
	}
	return 2 * float64(spins[i]) * field
}

// IntegerCouplings reports whether every coupling is an integer small
// enough that any energy computed over the model — full Hamiltonian
// walks and accumulated EnergyDelta updates alike — stays inside the
// exactly representable float64 integer range. When it holds,
// incremental energy tracking (core's fast path) is bit-identical to
// re-walking every edge; graph reductions with unit or small integer
// weights (the G-set, K-graphs) all qualify. The scan is O(N²) but runs
// once per solver build.
func (m *Model) IntegerCouplings() bool {
	n := m.N()
	if n == 0 {
		return true
	}
	// Each energy term and each accumulated delta is a sum of at most
	// n² couplings (plus n field entries, which the same bound covers);
	// keep the worst-case magnitude below 2⁵².
	limit := math.Exp2(52) / (float64(n) * float64(n))
	intWithin := func(v float64) bool {
		return math.Trunc(v)-v == 0 && math.Abs(v) <= limit
	}
	for _, v := range m.h {
		if !intWithin(v) {
			return false
		}
	}
	if m.k == nil {
		ok := true
		m.ks.Scan(func(_, _ int, v float64) {
			if !intWithin(v) {
				ok = false
			}
		})
		return ok
	}
	for i := 0; i < n; i++ {
		for _, v := range m.k.Row(i) {
			if !intWithin(v) {
				return false
			}
		}
	}
	return true
}

// SpinsToBinary converts ±1 spins to the {0,1} encoding used by the PRIS
// recurrence (σ=+1 → 1, σ=-1 → 0).
func SpinsToBinary(spins []int8) []float64 {
	b := make([]float64, len(spins))
	for i, s := range spins {
		if s == 1 {
			b[i] = 1
		} else if s != -1 {
			panic(fmt.Sprintf("ising: invalid spin %d at %d", s, i))
		}
	}
	return b
}

// BinaryToSpins converts {0,1} states back to ±1 spins. Any nonzero
// value maps to +1.
func BinaryToSpins(binary []float64) []int8 {
	s := make([]int8, len(binary))
	for i, b := range binary {
		if b != 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// RandomSpins returns n spins drawn ±1 from the given source function,
// which should return uniformly distributed booleans.
func RandomSpins(n int, coin func() bool) []int8 {
	s := make([]int8, n)
	for i := range s {
		if coin() {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}
