package ising_test

// Ground-state checks of the Ising models the problem front ends
// compile to. Each test minimizes the compiled ising.Model (native
// external field, no ancilla spin) exhaustively and decodes the ground
// state through the front end, so the spin model itself is what the
// reductions are judged on. Test names are kept from the QUBO layer
// these reductions used to live in.

import (
	"math"
	"math/rand"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/problem"
)

// groundState returns a minimum-energy spin state of m by exhaustive
// search; the lowest-index state wins ties.
func groundState(t *testing.T, m *ising.Model) []int8 {
	t.Helper()
	n := m.N()
	if n > 20 {
		t.Fatalf("%d spins is too many for exhaustive search", n)
	}
	best := math.Inf(1)
	var bestSpins []int8
	spins := make([]int8, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := range spins {
			spins[i] = -1
			if mask&(1<<i) != 0 {
				spins[i] = 1
			}
		}
		if e := m.Energy(spins); e < best {
			best = e
			bestSpins = append(bestSpins[:0], spins...)
		}
	}
	return bestSpins
}

// solveExhaustive compiles p, finds the ground state of its model and
// decodes it.
func solveExhaustive(t *testing.T, p problem.Problem) (*problem.Solution, *problem.Compiled, []int8) {
	t.Helper()
	c, err := problem.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	spins := groundState(t, c.Model)
	sol, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	return sol, c, spins
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// spinsOf returns n spins with the listed indices at +1, the rest -1.
func spinsOf(n int, up ...int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = -1
	}
	for _, i := range up {
		s[i] = 1
	}
	return s
}

func vertices(t *testing.T, sol *problem.Solution) []int {
	t.Helper()
	set, ok := sol.Assignment.(*problem.VertexSetSolution)
	if !ok {
		t.Fatalf("assignment %T, want *VertexSetSolution", sol.Assignment)
	}
	return set.Vertices
}

func TestVertexCoverQUBOExhaustive(t *testing.T) {
	// Path on 5 nodes: minimum vertex cover is {1,3}, size 2.
	sol, _, _ := solveExhaustive(t, &problem.VertexCover{G: pathGraph(t, 5)})
	if !sol.Feasible {
		t.Fatalf("ground state %v is not a cover: %v", vertices(t, sol), sol.Violations)
	}
	if len(vertices(t, sol)) != 2 || sol.Objective != 2 {
		t.Fatalf("cover %v (objective %v), optimum is size 2", vertices(t, sol), sol.Objective)
	}
}

func TestVertexCoverTriangle(t *testing.T) {
	sol, _, _ := solveExhaustive(t, &problem.VertexCover{G: triangle(t)})
	if !sol.Feasible || len(vertices(t, sol)) != 2 {
		t.Fatalf("triangle cover %v (feasible %v), want any 2 nodes", vertices(t, sol), sol.Feasible)
	}
}

// TestVertexCoverValidation: the penalty is derived, so the only bad
// input is a missing or empty graph, rejected at Lower and at Decode;
// Decode also rejects short and non-±1 spin vectors.
func TestVertexCoverValidation(t *testing.T) {
	for _, g := range []*graph.Graph{nil, graph.New(0)} {
		p := &problem.VertexCover{G: g}
		if _, err := problem.Compile(p); err == nil {
			t.Errorf("graph %v: empty graph compiled", g)
		}
		if _, err := p.Decode([]int8{1}); err == nil {
			t.Errorf("graph %v: empty graph decoded", g)
		}
	}
	p := &problem.VertexCover{G: pathGraph(t, 3)}
	if _, err := p.Decode([]int8{1, 1}); err == nil {
		t.Error("short spin vector decoded")
	}
	if _, err := p.Decode([]int8{1, 0, 1}); err == nil {
		t.Error("zero spin decoded")
	}
}

func TestIsVertexCover(t *testing.T) {
	p := &problem.VertexCover{G: pathGraph(t, 4)}
	sol, err := p.Decode(spinsOf(4, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("{1,2} covers a 4-path: %v", sol.Violations)
	}
	sol, err = p.Decode(spinsOf(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible || len(sol.Violations) != 2 {
		t.Fatalf("{0} leaves edges (1,2) and (2,3) uncovered; got feasible %v, violations %v", sol.Feasible, sol.Violations)
	}
}

// TestVertexCoverEndToEndViaIsing: the cover reduction's linear terms
// compile to the model's own external field over the 4 domain spins,
// with no ancilla, and the field-carrying ground state decodes to a
// minimum cover whose size is Energy + Offset.
func TestVertexCoverEndToEndViaIsing(t *testing.T) {
	sol, c, spins := solveExhaustive(t, &problem.VertexCover{G: pathGraph(t, 4)}) // min cover {1,2}
	if c.Model.N() != 4 || !c.Model.HasField() {
		t.Fatalf("compiled model has %d spins (field %v), want 4 with a native field", c.Model.N(), c.Model.HasField())
	}
	if !sol.Feasible || len(vertices(t, sol)) != 2 {
		t.Fatalf("ground state decodes to %v (feasible %v)", vertices(t, sol), sol.Feasible)
	}
	if got := c.Model.Energy(spins) + c.Offset; math.Abs(got-sol.Objective) > 1e-9 {
		t.Fatalf("Energy + Offset = %v, cover size %v", got, sol.Objective)
	}
}

func TestMaxIndependentSetQUBOExhaustive(t *testing.T) {
	// Path on 5 nodes: maximum independent set is {0,2,4}, size 3.
	sol, _, _ := solveExhaustive(t, &problem.IndependentSet{G: pathGraph(t, 5)})
	if !sol.Feasible {
		t.Fatalf("ground state %v is not independent: %v", vertices(t, sol), sol.Violations)
	}
	if got := vertices(t, sol); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("set %v, optimum {0,2,4}", got)
	}
}

func TestMaxIndependentSetValidation(t *testing.T) {
	if _, err := problem.Compile(&problem.IndependentSet{}); err == nil {
		t.Fatal("missing graph compiled")
	}
	sol, err := (&problem.IndependentSet{G: pathGraph(t, 3)}).Decode(spinsOf(3, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatal("{0,1} on a path is not independent")
	}
}

func TestColoringQUBOExhaustive(t *testing.T) {
	// Path on 3 nodes is 2-colorable.
	sol, _, _ := solveExhaustive(t, &problem.Coloring{G: pathGraph(t, 3), Colors: 2})
	if !sol.Feasible {
		t.Fatalf("ground state %+v is not a proper coloring: %v", sol.Assignment, sol.Violations)
	}
}

func TestColoringTriangleNeedsThree(t *testing.T) {
	// 2 colors cannot properly color a triangle: the ground state must
	// violate something.
	if sol, _, _ := solveExhaustive(t, &problem.Coloring{G: triangle(t), Colors: 2}); sol.Feasible {
		t.Fatal("triangle cannot be 2-colored")
	}
	// 3 colors work. 9 spins, still exhaustive.
	if sol, _, _ := solveExhaustive(t, &problem.Coloring{G: triangle(t), Colors: 3}); !sol.Feasible {
		t.Fatalf("triangle must be 3-colorable: %v", sol.Violations)
	}
}

func TestColoringValidation(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := problem.Compile(&problem.Coloring{G: g, Colors: 0}); err == nil {
		t.Fatal("zero colors must be rejected")
	}
	if _, err := problem.Compile(&problem.Coloring{Colors: 2}); err == nil {
		t.Fatal("missing graph must be rejected")
	}
	if _, err := (&problem.Coloring{G: g, Colors: 2}).Decode(spinsOf(5)); err == nil {
		t.Fatal("short spin vector must be rejected")
	}
}

// tinyTSP is four cities on a line at positions 0, 1, 2, 3. The optimal
// cyclic tour 0-1-2-3-0 has length 1+1+1+3 = 6.
func tinyTSP() [][]float64 {
	pos := []float64{0, 1, 2, 3}
	d := make([][]float64, 4)
	for i := range d {
		d[i] = make([]float64, 4)
		for j := range d[i] {
			d[i][j] = math.Abs(pos[i] - pos[j])
		}
	}
	return d
}

func TestTSPQUBOExhaustive(t *testing.T) {
	// 16 spins: the penalty is derived (1 + 2·d_max), not passed in.
	sol, _, _ := solveExhaustive(t, &problem.TSP{Dist: tinyTSP()})
	if !sol.Feasible {
		t.Fatalf("ground state violates the permutation constraints: %v", sol.Violations)
	}
	if sol.Objective != 6 {
		t.Fatalf("tour %+v has length %v, optimum 6", sol.Assignment, sol.Objective)
	}
}

func TestTSPValidation(t *testing.T) {
	bad := map[string]*problem.TSP{
		"empty":            {},
		"non-square":       {Dist: [][]float64{{0, 1, 2}, {1, 0, 1}}},
		"nonzero diagonal": {Dist: [][]float64{{1, 1}, {1, 0}}},
		"negative":         {Dist: [][]float64{{0, -1}, {-1, 0}}},
		"non-finite":       {Dist: [][]float64{{0, math.Inf(1)}, {1, 0}}},
		"negative penalty": {Dist: tinyTSP(), PenaltyWeight: -1},
	}
	for name, p := range bad {
		if _, err := problem.Compile(p); err == nil {
			t.Errorf("%s distance matrix compiled", name)
		}
	}
}

func TestDecodeTourErrors(t *testing.T) {
	p := &problem.TSP{Dist: [][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}}
	// No city placed anywhere; step 0 doubly assigned (cities 0 and 1),
	// city 2 at step 2. Both are broken permutation matrices: they decode
	// infeasible, to a repaired tour that still visits every city once.
	for name, spins := range map[string][]int8{
		"empty":       spinsOf(9),
		"double step": spinsOf(9, 0*3+0, 1*3+0, 2*3+2),
	} {
		sol, err := p.Decode(spins)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Feasible || len(sol.Violations) == 0 {
			t.Errorf("%s: broken permutation decoded feasible", name)
		}
		tour := sol.Assignment.(*problem.TourSolution).Tour
		seen := make([]bool, 3)
		for _, c := range tour {
			if c < 0 || c >= 3 || seen[c] {
				t.Fatalf("%s: repaired tour %v is not a permutation", name, tour)
			}
			seen[c] = true
		}
	}
	if _, err := p.Decode(spinsOf(8)); err == nil {
		t.Error("short spin vector decoded")
	}
}

// TestQUBOToIsingEquivalence: for every binary assignment, xᵀQx +
// offset equals the compiled model's energy (couplings plus native
// field) plus the compiled offset at σ = 2x − 1.
func TestQUBOToIsingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 6
	q := &problem.QUBO{N: n, Offset: 1.5}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			q.Entries = append(q.Entries, problem.QUBOEntry{I: i, J: j, W: math.Round(rng.NormFloat64() * 3)})
		}
	}
	c, err := problem.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]int, n)
	spins := make([]int8, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			bits[i], spins[i] = 0, -1
			if mask&(1<<i) != 0 {
				bits[i], spins[i] = 1, 1
			}
		}
		want := q.Value(bits)
		if got := c.Model.Energy(spins) + c.Offset; math.Abs(got-want) > 1e-9 {
			t.Fatalf("mask %b: ising %v != qubo %v", mask, got, want)
		}
	}
}

func TestNewQUBOValidation(t *testing.T) {
	bad := map[string]*problem.QUBO{
		"zero order":   {N: 0},
		"out of range": {N: 2, Entries: []problem.QUBOEntry{{I: 0, J: 2, W: 1}}},
		"negative":     {N: 2, Entries: []problem.QUBOEntry{{I: -1, J: 0, W: 1}}},
		"NaN weight":   {N: 2, Entries: []problem.QUBOEntry{{I: 0, J: 1, W: math.NaN()}}},
		"NaN offset":   {N: 2, Offset: math.NaN()},
	}
	for name, q := range bad {
		if _, err := problem.Compile(q); err == nil {
			t.Errorf("%s QUBO compiled", name)
		}
	}
}

func TestNumberPartition(t *testing.T) {
	// Total is 10, so a perfect partition (imbalance 0) exists:
	// {3,2} vs {1,1,2,1}.
	p := &problem.NumberPartition{Numbers: []float64{3, 1, 1, 2, 2, 1}}
	sol, c, _ := solveExhaustive(t, p)
	if c.Model.HasField() {
		t.Fatal("number partitioning must compile to a field-free model")
	}
	if sol.Objective != 0 {
		t.Fatalf("ground state imbalance %v, want 0", sol.Objective)
	}
}

// TestPartitionImbalancePanics: a numbers/spins length mismatch is an
// error from Decode, not a panic.
func TestPartitionImbalancePanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	if _, err := (&problem.NumberPartition{Numbers: []float64{1, 2}}).Decode([]int8{1}); err == nil {
		t.Fatal("short spin vector decoded")
	}
}
