package problem

import (
	"math"
	"testing"

	"sophie/internal/graph"
)

// bruteForceMin compiles the problem and exhaustively minimizes the
// Hamiltonian over every spin state (lowered order ≤ 22), returning
// the argmin spins and the compiled pair. This makes the round-trip
// goldens deterministic: the decoded optimum depends only on the
// reduction, never on solver luck.
func bruteForceMin(t *testing.T, p Problem) ([]int8, *Compiled) {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Model.N()
	if n > 22 {
		t.Fatalf("brute force wants lowered order <= 22, got %d", n)
	}
	spins := make([]int8, n)
	best := make([]int8, n)
	bestE := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		if e := c.Model.Energy(spins); e < bestE {
			bestE = e
			copy(best, spins)
		}
	}
	return best, c
}

// TestNumberPartitionGolden: {4,5,6,7,8} splits perfectly (4+5+6 = 7+8),
// so the ground state decodes to difference 0.
func TestNumberPartitionGolden(t *testing.T) {
	p := &NumberPartition{Numbers: []float64{4, 5, 6, 7, 8}}
	best, _ := bruteForceMin(t, p)
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 { //sophielint:ignore floateq integer sums split exactly
		t.Fatalf("ground state decodes to difference %v, want a perfect partition", sol.Objective)
	}
	if !sol.Feasible {
		t.Fatal("number partitioning is always feasible")
	}
	if _, err := p.Decode([]int8{1, -1}); err == nil {
		t.Fatal("decoding fewer spins than numbers must fail")
	}
	// K_ij = -2aᵢaⱼ stays integral for integer inputs, so the solver's
	// incremental energy tracking is exact on this model.
	if c, err := Compile(&NumberPartition{Numbers: []float64{3, 5, 8}}); err != nil || !c.Model.IntegerCouplings() {
		t.Fatalf("small integer number-partition model must report integer couplings (err %v)", err)
	}
}

// TestPartitionGolden: two triangles bridged by a single edge. The
// balanced minimum cut severs only the bridge (weight 1).
func TestPartitionGolden(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		g.AddEdge(e[0], e[1], 1)
	}
	p := &Partition{G: g}
	best, _ := bruteForceMin(t, p)
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("ground state is unbalanced: %v", sol.Violations)
	}
	if sol.Objective != 1 { //sophielint:ignore floateq unit weights cut exactly
		t.Fatalf("ground-state cut weight %v, want 1 (the bridge)", sol.Objective)
	}
	ps := sol.Assignment.(*PartitionSolution)
	if ps.Sides[0] != ps.Sides[1] || ps.Sides[1] != ps.Sides[2] {
		t.Fatalf("triangle {0,1,2} split across sides: %v", ps.Sides)
	}
}

// pathGraph returns the unit-weight path 0-1-...-(n-1).
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, 1)
	}
	return g
}

// decodeMin brute-forces the problem's ground state and decodes it.
func decodeMin(t *testing.T, p Problem) *Solution {
	t.Helper()
	best, _ := bruteForceMin(t, p)
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestVertexCoverGolden: the 5-path's only minimum cover is {1,3}; a
// triangle needs two nodes. Decoding a non-cover reports the
// uncovered edges.
func TestVertexCoverGolden(t *testing.T) {
	sol := decodeMin(t, &VertexCover{G: pathGraph(5)})
	if got := sol.Assignment.(*VertexSetSolution).Vertices; !sol.Feasible || len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("5-path ground state decodes to %v (feasible=%v), want the cover [1 3]", got, sol.Feasible)
	}
	if sol.Objective != 2 { //sophielint:ignore floateq set sizes are integral
		t.Fatalf("objective %v, want the cover size 2", sol.Objective)
	}
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	if sol := decodeMin(t, &VertexCover{G: g}); !sol.Feasible || sol.Objective != 2 { //sophielint:ignore floateq set sizes are integral
		t.Fatalf("triangle ground state: objective %v, feasible=%v; want a 2-node cover", sol.Objective, sol.Feasible)
	}
	// {0} leaves edges (1,2) and (2,3) of the 4-path uncovered.
	bad, err := (&VertexCover{G: pathGraph(4)}).Decode([]int8{1, -1, -1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Feasible || len(bad.Violations) != 2 {
		t.Fatalf("{0} on a 4-path: feasible=%v, violations %v; want 2 uncovered edges", bad.Feasible, bad.Violations)
	}
	if _, err := (&VertexCover{G: graph.New(0)}).Lower(); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

// TestIndependentSetGolden: the 5-path's only maximum independent set
// is {0,2,4}; two adjacent nodes decode infeasible.
func TestIndependentSetGolden(t *testing.T) {
	sol := decodeMin(t, &IndependentSet{G: pathGraph(5)})
	if got := sol.Assignment.(*VertexSetSolution).Vertices; !sol.Feasible || len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("5-path ground state decodes to %v (feasible=%v), want [0 2 4]", got, sol.Feasible)
	}
	bad, err := (&IndependentSet{G: pathGraph(3)}).Decode([]int8{1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Feasible {
		t.Fatal("{0,1} on a path is not independent")
	}
	if _, err := (&IndependentSet{}).Lower(); err == nil {
		t.Fatal("missing graph must be rejected")
	}
}

// TestIndependentSetComplementsVertexCover: the complement of a
// minimum cover is a maximum independent set, so on any graph the two
// optima add up to n.
func TestIndependentSetComplementsVertexCover(t *testing.T) {
	for _, seed := range []int64{44, 45, 46} {
		g, err := graph.Random(10, 18, graph.WeightUnit, seed)
		if err != nil {
			t.Fatal(err)
		}
		cover := decodeMin(t, &VertexCover{G: g})
		set := decodeMin(t, &IndependentSet{G: g})
		if !cover.Feasible || !set.Feasible {
			t.Fatalf("seed %d: ground states infeasible: cover %v, set %v", seed, cover.Violations, set.Violations)
		}
		if cover.Objective+set.Objective != float64(g.N()) { //sophielint:ignore floateq set sizes are integral
			t.Fatalf("seed %d: min cover %v + max independent set %v != %d nodes", seed, cover.Objective, set.Objective, g.N())
		}
	}
}

// TestColoringGolden: a triangle is exactly 3-chromatic, so the ground
// state of the 3-coloring reduction is a proper coloring with zero
// conflicts and all three colors distinct.
func TestColoringGolden(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	p := &Coloring{G: g, Colors: 3}
	best, c := bruteForceMin(t, p)
	if c.Model.N() != 9 {
		t.Fatalf("lowered order %d, want 9 (3 nodes × 3 colors)", c.Model.N())
	}
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.Objective != 0 { //sophielint:ignore floateq conflict count is integral
		t.Fatalf("ground state is not a proper coloring: objective %v, violations %v", sol.Objective, sol.Violations)
	}
	cs := sol.Assignment.(*ColoringSolution)
	seen := map[int]bool{}
	for _, col := range cs.Colors {
		if seen[col] {
			t.Fatalf("triangle nodes share color: %v", cs.Colors)
		}
		seen[col] = true
	}
}

// TestColoringInfeasibleGolden: a triangle cannot be 2-colored, so the
// ground state of the 2-coloring reduction carries exactly one
// conflict and decodes infeasible.
func TestColoringInfeasibleGolden(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	p := &Coloring{G: g, Colors: 2}
	best, _ := bruteForceMin(t, p)
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatal("a triangle is not 2-colorable")
	}
	if sol.Objective != 1 { //sophielint:ignore floateq conflict count is integral
		t.Fatalf("ground state has %v conflicts, want exactly 1", sol.Objective)
	}
}

// TestTSPGolden: four cities on a unit square. The optimal tour walks
// the perimeter (length 4); the diagonal-crossing tours cost 2+2√2.
func TestTSPGolden(t *testing.T) {
	s2 := math.Sqrt2
	p := &TSP{Dist: [][]float64{
		{0, 1, s2, 1},
		{1, 0, 1, s2},
		{s2, 1, 0, 1},
		{1, s2, 1, 0},
	}}
	best, c := bruteForceMin(t, p)
	if c.Model.N() != 16 {
		t.Fatalf("lowered order %d, want 16", c.Model.N())
	}
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("ground state is not a permutation: %v", sol.Violations)
	}
	if math.Abs(sol.Objective-4) > 1e-9 {
		t.Fatalf("ground-state tour length %v, want 4 (the perimeter)", sol.Objective)
	}
	tour := sol.Assignment.(*TourSolution).Tour
	for q := 0; q < 4; q++ {
		u, v := tour[q], tour[(q+1)%4]
		if p.Dist[u][v] != 1 { //sophielint:ignore floateq perimeter edges have exact unit length
			t.Fatalf("tour %v uses a diagonal", tour)
		}
	}
}

// TestMaxSATGolden: a small satisfiable formula with a forced model.
// Unit clauses pin x1=T, x2=F; the 3-literal clause then needs x3=T.
func TestMaxSATGolden(t *testing.T) {
	p := &MaxSAT{Vars: 3, Clauses: []Clause{
		{Lits: []int{1}, Weight: 2},
		{Lits: []int{-2}, Weight: 2},
		{Lits: []int{-1, 2, 3}, Weight: 1},
	}}
	best, _ := bruteForceMin(t, p)
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("satisfiable formula decoded infeasible: %v", sol.Violations)
	}
	ss := sol.Assignment.(*SATSolution)
	if ss.Bits[0] != 1 || ss.Bits[1] != 0 || ss.Bits[2] != 1 {
		t.Fatalf("assignment %v, want [1 0 1]", ss.Bits)
	}
	if sol.Objective != 5 { //sophielint:ignore floateq integral clause weights sum exactly
		t.Fatalf("satisfied weight %v, want 5", sol.Objective)
	}
}

// TestMaxSATReductionExact brute-forces the exactness claim of the
// chained AND-gadget reduction (penalty rule 1): for every assignment
// of the DOMAIN variables, the minimum of the lowered objective over
// the ancillas equals the unsatisfied weight — so the reduction
// preserves the full objective landscape, not just the optimum.
func TestMaxSATReductionExact(t *testing.T) {
	p := &MaxSAT{Vars: 4, Clauses: []Clause{
		{Lits: []int{1, 2, 3}, Weight: 1.5},
		{Lits: []int{-1, -2, 4}, Weight: 2},
		{Lits: []int{1, -3, -4, 2}, Weight: 1},
		{Lits: []int{-4}, Weight: 0.5},
		{Lits: []int{2, 3}, Weight: 3},
	}}
	ir, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	anc := ir.N - p.Vars
	if anc != 1+1+2 {
		t.Fatalf("%d ancillas, want 4 (k-2 per long clause)", anc)
	}
	x := make([]int, ir.N)
	for mask := 0; mask < 1<<p.Vars; mask++ {
		bits := make([]int, p.Vars)
		for i := 0; i < p.Vars; i++ {
			bits[i] = mask >> i & 1
			x[i] = bits[i]
		}
		unsatWeight := 0.0
		for ci := range p.Clauses {
			if !p.Clauses[ci].satisfied(bits) {
				unsatWeight += p.Clauses[ci].Weight
			}
		}
		lowered := math.Inf(1)
		for amask := 0; amask < 1<<anc; amask++ {
			for a := 0; a < anc; a++ {
				x[p.Vars+a] = amask >> a & 1
			}
			if v := evalIR(ir, x); v < lowered {
				lowered = v
			}
		}
		if math.Abs(lowered-unsatWeight) > 1e-9 {
			t.Fatalf("assignment %v: lowered min %v, unsatisfied weight %v", bits, lowered, unsatWeight)
		}
	}
}

// TestHopfieldDecode pins the recall bookkeeping: decoding a stored
// pattern reports unit overlap with itself, and the probe is exposed
// as the warm start.
func TestHopfieldDecode(t *testing.T) {
	pats, err := RandomPatterns(16, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	probe := CorruptPattern(pats[1], 0.15, 9)
	p := &Hopfield{Patterns: pats, Probe: probe}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Model.HasField() {
		t.Fatal("Hebbian couplings are pure Ising; no field expected")
	}
	sol, err := p.Decode(pats[1])
	if err != nil {
		t.Fatal(err)
	}
	hs := sol.Assignment.(*HopfieldSolution)
	if hs.BestPattern != 1 {
		t.Fatalf("decoding stored pattern 1 recalled pattern %d", hs.BestPattern)
	}
	if hs.Overlap != 1 { //sophielint:ignore floateq self-overlap is N/N, exact
		t.Fatalf("self-overlap %v, want 1", hs.Overlap)
	}
	init := p.InitialSpins()
	if len(init) != 16 {
		t.Fatalf("initial spins length %d", len(init))
	}
	for i := range init {
		if init[i] != probe[i] {
			t.Fatal("InitialSpins must replay the probe")
		}
	}
	init[0] = -init[0]
	if p.Probe[0] == init[0] && probe[0] != init[0] {
		t.Fatal("InitialSpins must copy, not alias, the probe")
	}
}

// TestRandomKSATPlanted: the generator's planted assignment satisfies
// every clause by construction, so decoding it is feasible with full
// weight.
func TestRandomKSATPlanted(t *testing.T) {
	p, planted, err := RandomKSAT(30, 120, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) != 120 {
		t.Fatalf("%d clauses, want 120", len(p.Clauses))
	}
	spins := make([]int8, p.Vars)
	for i, b := range planted {
		if b == 1 {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	sol, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("planted assignment violates clauses: %v", sol.Violations)
	}
	if sol.Objective != 120 { //sophielint:ignore floateq unit weights sum exactly
		t.Fatalf("planted assignment satisfies weight %v, want 120", sol.Objective)
	}
	// Determinism: same seed, same instance.
	q, planted2, err := RandomKSAT(30, 120, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range planted {
		if planted[i] != planted2[i] {
			t.Fatal("planted assignment not deterministic per seed")
		}
	}
	for ci := range p.Clauses {
		for li := range p.Clauses[ci].Lits {
			if p.Clauses[ci].Lits[li] != q.Clauses[ci].Lits[li] {
				t.Fatal("clauses not deterministic per seed")
			}
		}
	}
}

// TestDecodeRepairsInfeasibleSpins: decoders never fail on arbitrary
// ±1 input — broken one-hot blocks are repaired and reported.
func TestDecodeRepairsInfeasibleSpins(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	p := &Coloring{G: g, Colors: 2}
	// All spins down: no node picks a color.
	spins := []int8{-1, -1, -1, -1, -1, -1}
	sol, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatal("all-down one-hot blocks must decode infeasible")
	}
	cs := sol.Assignment.(*ColoringSolution)
	for v, col := range cs.Colors {
		if col < 0 || col >= 2 {
			t.Fatalf("repair left node %d with color %d", v, col)
		}
	}

	tsp := &TSP{Dist: [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}}
	all := make([]int8, 9)
	for i := range all {
		all[i] = 1 // every city claims every position
	}
	tsol, err := tsp.Decode(all)
	if err != nil {
		t.Fatal(err)
	}
	if tsol.Feasible {
		t.Fatal("all-up position matrix must decode infeasible")
	}
	tour := tsol.Assignment.(*TourSolution).Tour
	seen := map[int]bool{}
	for _, c := range tour {
		if c < 0 || c >= 3 || seen[c] {
			t.Fatalf("repair produced non-permutation tour %v", tour)
		}
		seen[c] = true
	}
}
