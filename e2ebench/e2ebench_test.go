package main

import (
	"math/rand"
	"testing"

	"sophie/internal/problem"
)

// smallSizes shrinks every workload so a traced run takes seconds.
var smallSizes = sizes{satVars: 24, satClauses: 72, mixVars: 16, mixClauses: 48, cutNodes: 2048, satIters: 200}

func smallRun(t *testing.T, workload string, seed int64) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: seed, seconds: 60, trace: true,
		workdir: t.TempDir(), maxJobs: 3, setups: 1, sizes: smallSizes,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.correct || res.failed != 0 || res.mismatches != 0 {
		t.Fatalf("%s: correct=%v failed=%d mismatches=%d info=%v", workload, res.correct, res.failed, res.mismatches, res.info)
	}
	return res
}

// TestExactRepeat runs every workload twice, small and with the same
// seed: the replay's counts (iterations to target, MVM counts, global
// syncs, decoded objectives) must repeat exactly.
func TestExactRepeat(t *testing.T) {
	counts := []string{"core.iters_to_target", "core.mvm_1b", "core.mvm_8b", "core.global_syncs", "core.objective", "problem.spins", "problem.nnz"}
	for _, w := range []string{"sat-tts", "serve-mix", "sparse-cut"} {
		t.Run(w, func(t *testing.T) {
			a, b := smallRun(t, w, 11), smallRun(t, w, 11)
			for _, name := range counts {
				va, vb := value(t, a, name), value(t, b, name)
				if va != vb {
					t.Errorf("%s: %s = %v then %v", w, name, va, vb)
				}
				if name != "core.iters_to_target" && va == 0 {
					t.Errorf("%s: %s is zero", w, name)
				}
			}
		})
	}
}

func value(t *testing.T, r *result, name string) float64 {
	t.Helper()
	for _, m := range r.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

// TestVerifierRejectsMismatches tampers with a correct result in each
// field the verifier checks.
func TestVerifierRejectsMismatches(t *testing.T) {
	in, err := plantedSAT(20, 60, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := problem.Compile(in.prob)
	if err != nil {
		t.Fatal(err)
	}
	good := func() *resultView {
		rng := rand.New(rand.NewSource(1))
		spins := make([]int8, c.Model.N())
		for i := range spins {
			spins[i] = int8(2*rng.Intn(2) - 1)
		}
		sol, err := in.prob.Decode(spins)
		if err != nil {
			t.Fatal(err)
		}
		obj := sol.Objective
		rv := &resultView{BestEnergy: c.Model.Energy(spins), BestObjective: &obj, BestSpins: spins,
			Solution: &solutionView{Objective: obj}}
		rv.Solution.Assignment.Bits = sol.Assignment.(*problem.SATSolution).Bits
		return rv
	}
	if _, err := check(in, good(), c.Model); err != nil {
		t.Fatalf("untampered result rejected: %v", err)
	}
	tamper := map[string]func(*resultView){
		"energy":     func(rv *resultView) { rv.BestEnergy++ },
		"objective":  func(rv *resultView) { o := *rv.BestObjective + 1; rv.BestObjective = &o },
		"solution":   func(rv *resultView) { rv.Solution.Objective-- },
		"assignment": func(rv *resultView) { rv.Solution.Assignment.Bits[0] ^= 1 },
		"spins":      func(rv *resultView) { rv.BestSpins = rv.BestSpins[1:] },
		"missing":    func(rv *resultView) { rv.Solution = nil },
	}
	for name, f := range tamper {
		rv := good()
		f(rv)
		if _, err := check(in, rv, c.Model); err == nil {
			t.Errorf("%s: tampered result accepted", name)
		}
	}
}

// TestTargetEnergy checks that reaching the target energy implies 95%
// of the planted optimum: for max-cut exactly, and for MAX-SAT through
// H + offset >= unsatisfied clauses on any spins.
func TestTargetEnergy(t *testing.T) {
	cut, err := bipartiteCubic(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := problem.Compile(cut.prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		spins := make([]int8, c.Model.N())
		sides := make([]int, len(spins))
		for i := range spins {
			sides[i] = rng.Intn(2)
			spins[i] = int8(2*sides[i] - 1)
		}
		frac := float64(cut.cut(sides)) / cut.optimum
		if reached := c.Model.Energy(spins) <= cut.targetEnergy(frac); !reached {
			t.Fatalf("max-cut at %.3f of the optimum misses its own target", frac)
		}
		if c.Model.Energy(spins) <= cut.targetEnergy(frac+0.01) {
			t.Fatalf("max-cut at %.3f of the optimum reaches the target for %.3f", frac, frac+0.01)
		}
	}

	sat, err := plantedSAT(30, 120, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err = problem.Compile(sat.prob)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		spins := make([]int8, c.Model.N())
		for i := range spins {
			spins[i] = int8(2*rng.Intn(2) - 1)
		}
		bits := make([]int, sat.n)
		for i := range bits {
			bits[i] = int(spins[i]+1) / 2
		}
		unsat := sat.optimum - float64(sat.satisfied(bits))
		if e := c.Model.Energy(spins) + sat.offset; e < unsat-1e-9 {
			t.Fatalf("energy %v + offset %v below the %v unsatisfied clauses", e-sat.offset, sat.offset, unsat)
		}
	}
}

// TestBipartiteCubic checks the generator: 3-regular, simple, and every
// edge crossing one bipartition, so the planted optimum is the edge count.
func TestBipartiteCubic(t *testing.T) {
	in, err := bipartiteCubic(200, 9)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int, in.n)
	seen := map[[2]int]bool{}
	side := make([]int, in.n)
	for i := range side {
		side[i] = -1
	}
	for _, e := range in.edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if seen[[2]int{u, v}] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[[2]int{u, v}] = true
		deg[e[0]]++
		deg[e[1]]++
	}
	for v, d := range deg {
		if d != 3 {
			t.Fatalf("node %d has degree %d", v, d)
		}
	}
	// Two-color by BFS; a conflict would mean an odd cycle.
	adj := make([][]int, in.n)
	for _, e := range in.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for s := range side {
		if side[s] >= 0 {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if side[v] < 0 {
					side[v] = 1 - side[u]
					queue = append(queue, v)
				}
			}
		}
	}
	if got := in.cut(side); float64(got) != in.optimum {
		t.Fatalf("bipartition cuts %d of %v edges", got, in.optimum)
	}
}
