package ising

import (
	"math"
	"math/rand"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/linalg"
)

func mustModel(t *testing.T, k *linalg.Matrix) *Model {
	t.Helper()
	m, err := NewModel(k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(linalg.NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix must be rejected")
	}
	bad, _ := linalg.NewMatrixFrom(2, 2, []float64{0, 1, 2, 0})
	if _, err := NewModel(bad); err == nil {
		t.Fatal("asymmetric matrix must be rejected")
	}
}

func TestNewModelZeroesDiagonal(t *testing.T) {
	k, _ := linalg.NewMatrixFrom(2, 2, []float64{5, 1, 1, 5})
	m := mustModel(t, k)
	if m.Coupling().At(0, 0) != 0 || m.Coupling().At(1, 1) != 0 {
		t.Fatal("diagonal must be zeroed")
	}
	// Input must not be mutated.
	if k.At(0, 0) != 5 {
		t.Fatal("NewModel mutated its input")
	}
}

func TestEnergyTwoSpins(t *testing.T) {
	// K01 = 1 (ferromagnetic): aligned spins have H = -1, anti-aligned +1.
	k, _ := linalg.NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	m := mustModel(t, k)
	if got := m.Energy([]int8{1, 1}); got != -1 {
		t.Fatalf("aligned energy %v, want -1", got)
	}
	if got := m.Energy([]int8{1, -1}); got != 1 {
		t.Fatalf("anti-aligned energy %v, want 1", got)
	}
}

func TestEnergyPanicsOnBadLength(t *testing.T) {
	m := mustModel(t, linalg.NewMatrix(3, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Energy([]int8{1})
}

func TestEnergyDeltaMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 12
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.NormFloat64()
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	m := mustModel(t, k)
	spins := RandomSpins(n, func() bool { return rng.Intn(2) == 0 })
	for i := 0; i < n; i++ {
		before := m.Energy(spins)
		delta := m.EnergyDelta(spins, i)
		spins[i] = -spins[i]
		after := m.Energy(spins)
		spins[i] = -spins[i]
		if math.Abs((after-before)-delta) > 1e-9 {
			t.Fatalf("flip %d: delta %v, recomputed %v", i, delta, after-before)
		}
	}
}

func TestFromMaxCutGroundStateIsMaxCut(t *testing.T) {
	// Exhaustively verify on a small random graph that the minimum-energy
	// state maximizes the cut.
	g, err := graph.Random(10, 20, graph.WeightUniform, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := FromMaxCut(g)
	bestCut := math.Inf(-1)
	minEnergy := math.Inf(1)
	var cutAtMinEnergy float64
	spins := make([]int8, 10)
	for mask := 0; mask < 1<<10; mask++ {
		for i := range spins {
			if mask&(1<<i) != 0 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		cut := g.CutValue(spins)
		e := m.Energy(spins)
		if cut > bestCut {
			bestCut = cut
		}
		if e < minEnergy {
			minEnergy = e
			cutAtMinEnergy = cut
		}
	}
	if cutAtMinEnergy != bestCut {
		t.Fatalf("ground state cut %v != max cut %v", cutAtMinEnergy, bestCut)
	}
}

func TestSpinBinaryConversions(t *testing.T) {
	spins := []int8{1, -1, -1, 1}
	b := SpinsToBinary(spins)
	want := []float64{1, 0, 0, 1}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("binary %v", b)
		}
	}
	back := BinaryToSpins(b)
	for i := range spins {
		if back[i] != spins[i] {
			t.Fatalf("round trip %v", back)
		}
	}
}

func TestSpinsToBinaryPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpinsToBinary([]int8{0})
}

func TestRandomSpins(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := RandomSpins(1000, func() bool { return rng.Intn(2) == 0 })
	ups := 0
	for _, v := range s {
		if v != 1 && v != -1 {
			t.Fatalf("invalid spin %d", v)
		}
		if v == 1 {
			ups++
		}
	}
	if ups < 400 || ups > 600 {
		t.Fatalf("suspicious spin balance: %d ups of 1000", ups)
	}
}

// TestWithField: a model's external field adds exactly -Σhᵢσᵢ to the
// coupling energy, EnergyDelta accounts for it, and malformed fields
// are rejected.
func TestWithField(t *testing.T) {
	k, _ := linalg.NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	m := mustModel(t, k)
	h := []float64{0.5, -0.25}
	fm, err := m.WithField(h)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasField() || !fm.HasField() {
		t.Fatal("WithField must install the field on a copy only")
	}
	spins := []int8{1, -1}
	diff := fm.Energy(spins) - m.Energy(spins)
	want := -(h[0]*1 + h[1]*(-1))
	if math.Abs(diff-want) > 1e-12 {
		t.Fatalf("field contribution %v, want %v", diff, want)
	}
	flipped := []int8{-1, -1}
	if d := fm.EnergyDelta(spins, 0); math.Abs(d-(fm.Energy(flipped)-fm.Energy(spins))) > 1e-12 {
		t.Fatalf("EnergyDelta %v disagrees with recomputation", d)
	}
	if _, err := m.WithField([]float64{1}); err == nil {
		t.Fatal("mismatched field length must be rejected")
	}
	if _, err := m.WithField([]float64{1, math.NaN()}); err == nil {
		t.Fatal("non-finite field must be rejected")
	}
}

func TestIntegerCouplings(t *testing.T) {
	g, err := graph.Random(30, 100, graph.WeightUnit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !FromMaxCut(g).IntegerCouplings() {
		t.Fatal("unit-weight max-cut model must report integer couplings")
	}
	k := linalg.NewMatrix(3, 3)
	k.Set(0, 1, 0.5)
	k.Set(1, 0, 0.5)
	frac := mustModel(t, k)
	if frac.IntegerCouplings() {
		t.Fatal("fractional coupling must not report integer")
	}
	big := linalg.NewMatrix(2, 2)
	big.Set(0, 1, math.Exp2(60))
	big.Set(1, 0, math.Exp2(60))
	if mustModel(t, big).IntegerCouplings() {
		t.Fatal("oversized integer coupling must not report exact")
	}
}
