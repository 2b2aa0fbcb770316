package core

import (
	"fmt"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/metrics"
	"sophie/internal/opcm"
	"sophie/internal/problem"
	"sophie/internal/tiling"
)

// TestDeltaPathMatchesExactRecompute is the golden equivalence gate for
// the flip-aware incremental datapath: with the ideal engine, a solve on
// the fast path must reproduce the reference (ExactRecompute) path
// bit for bit — spins, energies, full trace, and op counts — across
// seeds and tile sizes.
func TestDeltaPathMatchesExactRecompute(t *testing.T) {
	_, m := testProblem(t)
	for _, tileSize := range []int{16, 32, 64} {
		for _, seed := range []int64{1, 7, 42} {
			cfg := quickConfig()
			cfg.TileSize = tileSize
			cfg.RecordTrace = true

			exact := cfg
			exact.ExactRecompute = true
			refSolver, err := NewSolver(m, exact)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refSolver.Run(seed)
			if err != nil {
				t.Fatal(err)
			}

			fastSolver, err := NewSolver(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := fastSolver.Run(seed)
			if err != nil {
				t.Fatal(err)
			}

			label := fmt.Sprintf("tile=%d seed=%d", tileSize, seed)
			requireIdentical(t, label, ref, fast)
		}
	}
}

// TestDeltaPathMatchesExactRecomputeVariants exercises the fast path
// under the paper's stochastic knobs — partial tile selection, majority
// reconciliation, annealed noise, sparse evaluation — and a low
// DeltaRefreshEvery forcing mid-round re-anchoring.
func TestDeltaPathMatchesExactRecomputeVariants(t *testing.T) {
	_, m := testProblem(t)
	variants := map[string]func(*Config){
		"majority":     func(c *Config) { c.SpinUpdate = SpinUpdateMajority },
		"partial":      func(c *Config) { c.TileFraction = 0.6 },
		"annealed":     func(c *Config) { c.Phi = 0.3; c.PhiEnd = 0.05 },
		"sparse-eval":  func(c *Config) { c.EvalEvery = 7 },
		"refresh-2":    func(c *Config) { c.DeltaRefreshEvery = 2 },
		"long-local":   func(c *Config) { c.LocalIters = 20 }, // crosses defaultDeltaRefresh
		"single-tile":  func(c *Config) { c.TileSize = 128 },  // untiled: offsets vanish
		"zero-noise":   func(c *Config) { c.Phi = 0 },
		"many-workers": func(c *Config) { c.Workers = 4 },
	}
	for name, mutate := range variants {
		cfg := quickConfig()
		cfg.RecordTrace = true
		mutate(&cfg)

		exact := cfg
		exact.ExactRecompute = true
		refSolver, err := NewSolver(m, exact)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refSolver.Run(99)
		if err != nil {
			t.Fatal(err)
		}
		fastSolver, err := NewSolver(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := fastSolver.Run(99)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, name, ref, fast)
	}
}

// TestDeltaPathFloatCouplings covers the non-integer-coupling energy
// fallback: number-partitioning couplings are floats, so the tracker
// must take the full Energy walk and still match the reference path.
func TestDeltaPathFloatCouplings(t *testing.T) {
	c, err := problem.Compile(&problem.NumberPartition{Numbers: []float64{3.7, 1.2, 9.5, 4.4, 2.2, 8.1, 5.3, 0.9, 6.6, 7.7, 1.1, 2.9, 3.3, 4.8, 5.5, 6.1, 7.2, 8.8, 9.9, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Model
	if m.IntegerCouplings() {
		t.Fatal("test premise broken: expected non-integer couplings")
	}
	cfg := quickConfig()
	cfg.TileSize = 8
	cfg.RecordTrace = true
	exact := cfg
	exact.ExactRecompute = true
	ref, err := Solve(m, exact)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Solve(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "float-couplings", ref, fast)
}

// TestOpcmEngineFallsBackToReferencePath pins the device-model contract:
// opcm's per-call noise draws are part of the device semantics, so its
// engine must not satisfy tiling.DeltaEngine, and solves with it must be
// identical whether or not ExactRecompute is set (both take the
// reference path).
func TestOpcmEngineFallsBackToReferencePath(t *testing.T) {
	eng, err := opcm.NewEngine([]*linalg.Matrix{linalg.NewMatrix(4, 4)}, 0, opcm.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var anyEngine tiling.Engine = eng
	if _, ok := anyEngine.(tiling.DeltaEngine); ok {
		t.Fatal("opcm.Engine must not implement tiling.DeltaEngine: per-call noise draws cannot be decomposed per column")
	}

	_, m := testProblem(t)
	cfg := quickConfig()
	cfg.RecordTrace = true
	cfg.GlobalIters = 20
	cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
		return opcm.NewEngine(tiles, 0, opcm.DefaultParams())
	}
	exact := cfg
	exact.ExactRecompute = true
	ref, err := Solve(m, exact)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Solve(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "opcm-fallback", ref, dev)
}

// TestOpCountsExactSmallTiledModel pins the exact analytic op counts for
// a small tiled solve — in particular the initialization charges, where
// a diagonal pair executes one MVM (not two). The counts are derived by
// hand from the dataflow of Run/synchronize below and must hold on both
// datapaths (operation counting models the hardware, which always runs
// full MVMs; the simulator fast path is charged identically).
func TestOpCountsExactSmallTiledModel(t *testing.T) {
	// 48 nodes, tile 16 → 3×3 tile grid: 3 diagonal + 3 off-diagonal pairs.
	g, err := graph.Random(48, 200, graph.WeightUnit, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := ising.FromMaxCut(g)

	const (
		tile  = 16
		tiles = 3
		diag  = 3
		off   = 3
		L     = 4
		G     = 5
	)
	cfg := DefaultConfig()
	cfg.TileSize = tile
	cfg.LocalIters = L
	cfg.GlobalIters = G
	cfg.Phi = 0.1
	cfg.SpinUpdate = SpinUpdateStochastic

	for _, exactRecompute := range []bool{false, true} {
		cfg.ExactRecompute = exactRecompute
		res, err := Solve(m, cfg)
		if err != nil {
			t.Fatal(err)
		}

		var want metrics.OpCounts
		// Initialization: one 8-bit MVM per diagonal pair, two per
		// off-diagonal pair, each sampling t outputs.
		want.LocalMVM8b = diag + 2*off
		want.ADCSamples8b = metrics.U64((diag + 2*off) * tile)
		// Per global iteration, all pairs selected (TileFraction 1):
		perIter := func() {
			// Load phase: each pair gathers 2 offset vectors over Tiles-1
			// source blocks and writes spins (1b) + offsets (8b).
			want.GlueOps += metrics.U64((diag + off) * 2 * (tiles - 1) * tile)
			want.SRAMWriteBits += metrics.U64((diag + off) * 2 * tile * (1 + 8))
			// Local iterations: diagonal pairs run L MVMs (last one 8-bit),
			// off-diagonal pairs 2L (last two 8-bit).
			want.LocalMVM1b += metrics.U64(diag*(L-1) + off*(2*L-2))
			want.LocalMVM8b += metrics.U64(diag + 2*off)
			want.ADCSamples1b += metrics.U64((diag*(L-1) + off*(2*L-2)) * tile)
			want.ADCSamples8b += metrics.U64((diag + 2*off) * tile)
			want.EOBits += metrics.U64((diag*L + off*2*L) * tile)
			// Synchronization: every pair publishes partials and spin
			// copies (2t values each at 8 and 1 bits)...
			want.SRAMReadBits += metrics.U64((diag + off) * (2*tile*8 + 2*tile))
			want.DRAMWriteBits += metrics.U64((diag + off) * (2*tile*8 + 2*tile))
			// ...then each of the 3 blocks reconciles its 3 copies (each
			// block appears in 1 diagonal + 2 off-diagonal pairs):
			// stochastic pick costs t glue ops and broadcasts to 3 copies.
			want.GlueOps += metrics.U64(tiles * tile)
			want.DRAMReadBits += metrics.U64(tiles * tile * 3)
			want.GlobalSyncs++
		}
		for i := 0; i < G; i++ {
			perIter()
		}
		if res.Ops != want {
			t.Fatalf("exactRecompute=%v: op counts diverge from analytic model:\ngot  %s\nwant %s",
				exactRecompute, res.Ops.String(), want.String())
		}
	}
}
