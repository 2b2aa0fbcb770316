package sophie_test

// End-to-end integration tests spanning the full stack: functional
// solver → scheduling → architecture model → device model, the way the
// experiment harness composes them.

import (
	"math"
	"testing"

	"sophie"
	"sophie/internal/arch"
	"sophie/internal/baseline"
	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/opcm"
	"sophie/internal/pris"
	"sophie/internal/sched"
	"sophie/internal/tiling"
)

// TestEndToEndSmallGraphPipeline mirrors the Table II flow: functional
// convergence on a small instance, priced by the architecture model,
// with feasibility checks.
func TestEndToEndSmallGraphPipeline(t *testing.T) {
	g, err := graph.Random(200, 1200, graph.WeightUnit, 53100)
	if err != nil {
		t.Fatal(err)
	}
	m := ising.FromMaxCut(g)

	// Reference via BLS.
	ref, err := baseline.BLS(g, baseline.BLSConfig{MaxMoves: 150000, PerturbBase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := g.TotalWeight() - 2*0.95*ref.BestCut

	cfg := core.DefaultConfig()
	cfg.Phi = 0.2
	cfg.GlobalIters = 200
	cfg.TargetEnergy = &target
	solver, err := core.NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("did not reach 95%% of BLS reference %v (best %v)", ref.BestCut, g.CutValue(res.BestSpins))
	}

	hw := sched.DefaultHardware()
	design := arch.Design{Hardware: hw, Params: arch.DefaultParams()}
	rep, err := arch.Evaluate(design, arch.Workload{
		Name: "G1-mini", Nodes: g.N(), Batch: 100,
		LocalIters: cfg.LocalIters, GlobalIters: res.GlobalItersRun, TileFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedule.Resident {
		t.Fatal("200-node instance must be resident on one accelerator")
	}
	if rep.TimePerJobS <= 0 || rep.TimePerJobS > 1e-3 {
		t.Fatalf("per-job time %v implausible", rep.TimePerJobS)
	}
	if _, err := arch.CheckFeasibility(rep); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndCapacityLimitedDiscreteTiming cross-checks the analytic
// and discrete timing paths on the Fig. 10 setup.
func TestEndToEndCapacityLimitedDiscreteTiming(t *testing.T) {
	hw := sched.Hardware{Accelerators: 1, ChipletsPerAccel: 4, PEsPerChiplet: 16, TileSize: 64}
	design := arch.Design{Hardware: hw, Params: arch.DefaultParams()}
	w := arch.Workload{Nodes: 2000, Batch: 100, LocalIters: 10, GlobalIters: 25, TileFraction: 0.74}

	grid, err := tiling.NewGrid(w.Nodes, hw.TileSize)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Generate(grid, hw, sched.Options{
		GlobalIters: w.GlobalIters, TileFraction: w.TileFraction, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := arch.SimulatePlan(design, plan, w)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := arch.Evaluate(design, w)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sim.TimePerJobS / ana.TimePerJobS
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("discrete/analytic timing ratio %.2f outside [0.7,1.3]", ratio)
	}
	// The communication schedule's payload must match what the analytic
	// model assumes per iteration (within the 1-bit packing rounding).
	ops, err := plan.CommSchedule(0, w.Batch)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes := float64(sched.TotalBytes(ops))
	wantBytes := float64(plan.Grid.TileSize) * 4.5 * float64(w.Batch) * float64(len(plan.Iterations[0].Selected))
	if math.Abs(gotBytes-wantBytes)/wantBytes > 0.05 {
		t.Fatalf("comm schedule bytes %v vs analytic %v", gotBytes, wantBytes)
	}
}

// TestEndToEndSparseRankPipeline runs the scalable preprocessing path:
// sparse coupling → Lanczos rank transform → PRIS solve.
func TestEndToEndSparseRankPipeline(t *testing.T) {
	g, err := graph.Random(300, 3000, graph.WeightUnit, 77)
	if err != nil {
		t.Fatal(err)
	}
	m := ising.FromMaxCut(g)
	tr, err := pris.NewTransformRankSparse(g.CouplingCSR(), 0, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pris.SolveWithTransform(m, tr, pris.Config{Phi: 0.2, Alpha: 0, Iterations: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut := g.CutValue(res.BestSpins); cut < 0.6*float64(g.M()) {
		t.Fatalf("sparse-rank pipeline cut %v too weak", cut)
	}
}

// TestEndToEndDriftRefreshCycle runs the solver through the drift
// engine, ages it, refreshes, and verifies the refreshed device matches
// fresh behavior.
func TestEndToEndDriftRefreshCycle(t *testing.T) {
	g, err := graph.Random(100, 600, graph.WeightUnit, 31)
	if err != nil {
		t.Fatal(err)
	}
	m := ising.FromMaxCut(g)
	cfg := core.DefaultConfig()
	cfg.TileSize = 32
	cfg.GlobalIters = 40
	cfg.Phi = 0.15
	cfg = sophie.WithDriftDeviceModel(cfg, opcm.DefaultParams(), 0.02, 1e-6)
	solver, err := core.NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drift, ok := solver.Engine().(*opcm.DriftEngine)
	if !ok {
		t.Fatal("engine is not a DriftEngine")
	}
	fresh, err := solver.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	drift.Tick(86400 * 365) // one unrefreshed year
	if drift.MaxDriftError() <= 0 {
		t.Fatal("a year of drift must register")
	}
	aged, err := solver.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := drift.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	refreshed, err := solver.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.BestEnergy != fresh.BestEnergy {
		t.Fatalf("refresh did not restore fresh behavior: %v vs %v", refreshed.BestEnergy, fresh.BestEnergy)
	}
	// Aged run still produces a usable (if possibly weaker) answer.
	if g.CutValue(aged.BestSpins) < 0.4*float64(g.M()) {
		t.Fatal("aged device collapsed entirely")
	}
}

// TestEndToEndQUBOOnSOPHIE solves a vertex-cover problem through the
// full compile → solve → decode pipeline with a noise-annealed
// schedule; the compiled model carries the QUBO's linear terms as a
// native field.
func TestEndToEndQUBOOnSOPHIE(t *testing.T) {
	g := sophie.NewGraph(6)
	for i := 0; i < 6; i++ {
		if err := g.AddEdge(i, (i+1)%6, 1); err != nil {
			t.Fatal(err)
		}
	}
	p := &sophie.VertexCover{G: g}
	c, err := sophie.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sophie.DefaultConfig()
	cfg.TileSize = 8
	cfg.GlobalIters = 200
	cfg.Phi = 0.6
	cfg.PhiEnd = 0.05
	found := false
	for seed := int64(0); seed < 6 && !found; seed++ {
		cfg.Seed = seed
		res, err := sophie.Solve(c.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := p.Decode(res.BestSpins)
		if err != nil {
			t.Fatal(err)
		}
		// The 6-cycle's minimum cover has 3 nodes.
		found = sol.Feasible && sol.Objective == 3 //sophielint:ignore floateq set sizes are integral
	}
	if !found {
		t.Fatal("no seed found the minimum vertex cover of a 6-cycle")
	}
}
