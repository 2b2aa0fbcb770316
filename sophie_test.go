package sophie_test

import (
	"bytes"
	"math"
	"testing"

	"sophie"
)

// These tests exercise the public facade end to end, the way a
// downstream user would.

func TestFacadeQuickstart(t *testing.T) {
	g := sophie.KGraph(100)
	cfg := sophie.DefaultConfig()
	cfg.GlobalIters = 40
	cfg.Seed = 1
	res, err := sophie.Solve(sophie.MaxCut(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := g.CutValue(res.BestSpins)
	// K100 with ±1 weights: random cuts average ~0; the solver must find
	// a clearly positive cut.
	if cut <= 100 {
		t.Fatalf("K100 cut %v too weak", cut)
	}
}

func TestFacadeGraphRoundTrip(t *testing.T) {
	g, err := sophie.RandomGraph(30, 60, sophie.WeightPM1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sophie.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := sophie.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 30 || back.M() != 60 {
		t.Fatal("facade graph I/O round trip failed")
	}
}

func TestFacadeStandins(t *testing.T) {
	if sophie.G1().N() != 800 || sophie.G22().N() != 2000 {
		t.Fatal("stand-in shapes wrong")
	}
}

func TestFacadeDeviceModel(t *testing.T) {
	g, _ := sophie.RandomGraph(80, 400, sophie.WeightUnit, 4)
	cfg := sophie.DefaultConfig()
	cfg.TileSize = 32
	cfg.GlobalIters = 40
	cfg = sophie.WithDeviceModel(cfg, sophie.DefaultDeviceParams())
	res, err := sophie.Solve(sophie.MaxCut(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.CutValue(res.BestSpins) < 0.5*float64(g.M()) {
		t.Fatal("device-model solve too weak")
	}
}

func TestFacadePRISAndBaselines(t *testing.T) {
	g, _ := sophie.RandomGraph(60, 240, sophie.WeightUnit, 5)
	m := sophie.MaxCut(g)

	if _, err := sophie.SolvePRIS(m, sophie.PRISConfig{Phi: 0.15, Iterations: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	sa := sophie.DefaultSAConfig()
	sa.Sweeps = 100
	if _, err := sophie.SimulatedAnnealing(m, sa); err != nil {
		t.Fatal(err)
	}
	sb := sophie.DefaultSBConfig()
	sb.Steps = 100
	if _, err := sophie.SimulatedBifurcation(m, sb); err != nil {
		t.Fatal(err)
	}
	brim := sophie.DefaultBRIMConfig()
	brim.Steps = 100
	if _, err := sophie.BRIM(m, brim); err != nil {
		t.Fatal(err)
	}
	bls := sophie.DefaultBLSConfig()
	bls.MaxMoves = 5000
	if _, err := sophie.BLS(g, bls); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePPA(t *testing.T) {
	rep, err := sophie.EstimatePPA(sophie.DefaultDesign(), sophie.Workload{
		Name: "K16384", Nodes: 16384, Batch: 100,
		LocalIters: 10, GlobalIters: 50, TileFraction: 0.74,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimePerJobS <= 0 || rep.EnergyPerJobJ <= 0 || rep.AreaMM2 <= 0 || rep.EDAP <= 0 {
		t.Fatalf("PPA report not positive: %+v", rep)
	}
}

func TestFacadeNumberPartition(t *testing.T) {
	p, err := sophie.ParseSpec([]byte(`{"type":"numberpartition","numbers":[5,4,3,2,1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sophie.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sophie.DefaultConfig()
	cfg.TileSize = 8
	cfg.GlobalIters = 80
	cfg.Phi = 0.3
	// Keep the eigenvalue-dropout transform: the raw coupling matrix of
	// number partitioning is fully antiferromagnetic and the synchronous
	// recurrence oscillates without it.
	// The recurrence is stochastic; take the best of a few seeds, as the
	// batched hardware does.
	best := 1e18
	for seed := int64(0); seed < 4; seed++ {
		cfg.Seed = seed
		res, err := sophie.Solve(c.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := p.Decode(res.BestSpins)
		if err != nil {
			t.Fatal(err)
		}
		best = math.Min(best, sol.Assignment.(*sophie.NumberPartitionSolution).Difference)
	}
	// Total is 16; a perfect split exists. Accept near-perfect.
	if best > 2 {
		t.Fatalf("imbalance %v too large", best)
	}
}

func TestFacadeParallelTempering(t *testing.T) {
	g, _ := sophie.RandomGraph(50, 200, sophie.WeightUnit, 10)
	cfg := sophie.DefaultPTConfig()
	cfg.Sweeps = 80
	res, err := sophie.ParallelTempering(sophie.MaxCut(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.CutValue(res.BestSpins) < 0.55*float64(g.M()) {
		t.Fatal("PT via facade too weak")
	}
}

func TestFacadeCoreTempering(t *testing.T) {
	g, _ := sophie.RandomGraph(48, 200, sophie.WeightUnit, 12)
	cfg := sophie.DefaultConfig()
	cfg.TileSize = 16
	cfg.GlobalIters = 30
	s, err := sophie.NewSolver(sophie.MaxCut(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := sophie.SeedRange(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.RunTempering(seeds, sophie.TemperingOptions{TMin: 0.05, TMax: 0.5, ExchangeEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	var stats *sophie.TemperingStats = batch.Tempering
	if stats == nil || len(stats.Phis) != 4 {
		t.Fatalf("tempering stats missing or mis-sized: %+v", stats)
	}
	if g.CutValue(batch.Best().BestSpins) < 0.55*float64(g.M()) {
		t.Fatal("core tempering via facade too weak")
	}
}

func TestFacadeDriftDeviceModel(t *testing.T) {
	g, _ := sophie.RandomGraph(60, 240, sophie.WeightUnit, 11)
	cfg := sophie.DefaultConfig()
	cfg.TileSize = 32
	cfg.GlobalIters = 25
	cfg = sophie.WithDriftDeviceModel(cfg, sophie.DefaultDeviceParams(), 0.01, 1e-3)
	res, err := sophie.Solve(sophie.MaxCut(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.CutValue(res.BestSpins) <= 0 {
		t.Fatal("drift-engine solve failed")
	}
}

func TestFacadeTimeToSolution(t *testing.T) {
	tts, err := sophie.TimeToSolution(1e-6, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if tts <= 1e-6 {
		t.Fatal("TTS must exceed one run time for p<0.9")
	}
}

func TestFacadeMatrixAndTSP(t *testing.T) {
	d := sophie.NewMatrix(3, 3)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(1, 2, 2)
	d.Set(2, 1, 2)
	d.Set(0, 2, 2)
	d.Set(2, 0, 2)
	p := &sophie.TSP{Dist: [][]float64{d.Row(0), d.Row(1), d.Row(2)}}
	c, err := sophie.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive ground state of the 9-spin model.
	n := c.Model.N()
	spins, best := make([]int8, n), make([]int8, n)
	bestE := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		for i := range spins {
			spins[i] = int8(2*(mask>>i&1) - 1)
		}
		if e := c.Model.Energy(spins); e < bestE {
			bestE = e
			copy(best, spins)
		}
	}
	sol, err := p.Decode(best)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.Objective != 5 { //sophielint:ignore floateq integer distances sum exactly
		t.Fatalf("3-city ground state: tour length %v (feasible=%v), want a length-5 tour", sol.Objective, sol.Feasible)
	}
}

func TestFacadeSolveAndEstimate(t *testing.T) {
	g := sophie.KGraph(100)
	cfg := sophie.DefaultConfig()
	cfg.GlobalIters = 20
	cfg.Phi = 0.2
	d := sophie.DefaultDesign()
	res, rep, err := sophie.SolveAndEstimate(sophie.MaxCut(g), cfg, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalItersRun != 20 || rep.TimePerJobS <= 0 {
		t.Fatalf("co-simulation inconsistent: %d iters, %v s/job", res.GlobalItersRun, rep.TimePerJobS)
	}
	// Tile-size mismatch must be rejected.
	bad := d
	bad.Hardware.TileSize = 32
	if _, _, err := sophie.SolveAndEstimate(sophie.MaxCut(g), cfg, bad, 100); err == nil {
		t.Fatal("tile mismatch must error")
	}
}
