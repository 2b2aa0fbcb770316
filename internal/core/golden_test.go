package core

import (
	"testing"

	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/problem"
	"sophie/internal/tiling"
)

// goldenCase is one default-update shape TestDefaultUpdateGolden pins:
// a problem, a config, and the engine the solver must have picked (so a
// drift in the auto-pick cannot silently move a case to another path).
type goldenCase struct {
	name   string
	model  func(t *testing.T) *ising.Model
	config func() Config
	sparse bool
	want   map[int64]resultDigest
}

func denseModel(t *testing.T) *ising.Model {
	_, m := testProblem(t)
	return m
}

func sparseModel(t *testing.T) *ising.Model {
	_, m := sparseProblem(t, graph.WeightUnit)
	return m
}

// floatModel is a number-partitioning instance: non-integer couplings,
// so evaluation takes the tracker's full Energy walk.
func floatModel(t *testing.T) *ising.Model {
	c, err := problem.Compile(&problem.NumberPartition{Numbers: []float64{3.7, 1.2, 9.5, 4.4, 2.2, 8.1, 5.3, 0.9, 6.6, 7.7, 1.1, 2.9, 3.3, 4.8, 5.5, 6.1, 7.2, 8.8, 9.9, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	return c.Model
}

func goldenConfig(mutate func(*Config)) func() Config {
	return func() Config {
		cfg := quickConfig()
		cfg.RecordTrace = true
		mutate(&cfg)
		return cfg
	}
}

var goldenCases = []goldenCase{
	{
		name:   "sparse-delta",
		model:  sparseModel,
		config: goldenConfig(func(c *Config) { c.SkipTransform = true }),
		sparse: true,
		want: map[int64]resultDigest{
			1: {energy: 0xc069400000000000, spins: 0x46f7d0ae3eb5366a, trace: 0x7336b872a89a1918, ops: 0xa2316bd0983114f7},
			2: {energy: 0xc062c00000000000, spins: 0xe06deda5b0c2d3b6, trace: 0x651c9a0baba2a6bf, ops: 0xa2316bd0983114f7},
			3: {energy: 0xc067400000000000, spins: 0x4c23b034c8445c12, trace: 0x3c9a2a6c9c1fbcff, ops: 0xa2316bd0983114f7},
		},
	},
	{
		name:   "dense-delta",
		model:  denseModel,
		config: goldenConfig(func(*Config) {}),
		want: map[int64]resultDigest{
			1: {energy: 0xc06a400000000000, spins: 0x749fa95fd71ed951, trace: 0x3742db33726837d0, ops: 0xa2316bd0983114f7},
			2: {energy: 0xc06c400000000000, spins: 0xb25bcf7036b1e47b, trace: 0x87fafcd2d0916597, ops: 0xa2316bd0983114f7},
			3: {energy: 0xc06bc00000000000, spins: 0x86dc8e86e94f362f, trace: 0xb175a6f9bf2591e9, ops: 0xa2316bd0983114f7},
		},
	},
	{
		name:   "exact-recompute",
		model:  denseModel,
		config: goldenConfig(func(c *Config) { c.ExactRecompute = true }),
		want: map[int64]resultDigest{
			1: {energy: 0xc06a400000000000, spins: 0x749fa95fd71ed951, trace: 0x3742db33726837d0, ops: 0xa2316bd0983114f7},
			2: {energy: 0xc06c400000000000, spins: 0xb25bcf7036b1e47b, trace: 0x87fafcd2d0916597, ops: 0xa2316bd0983114f7},
			3: {energy: 0xc06bc00000000000, spins: 0x86dc8e86e94f362f, trace: 0xb175a6f9bf2591e9, ops: 0xa2316bd0983114f7},
		},
	},
	{
		name:   "phi-zero",
		model:  denseModel,
		config: goldenConfig(func(c *Config) { c.Phi = 0 }),
		want: map[int64]resultDigest{
			1: {energy: 0xc065400000000000, spins: 0x48d44e67deb5b7af, trace: 0x678bdc2080f52d53, ops: 0xa2316bd0983114f7},
			2: {energy: 0xc069800000000000, spins: 0x5f36cac70ae3b727, trace: 0xfcbc98f0dbdb6892, ops: 0xa2316bd0983114f7},
			3: {energy: 0xc066000000000000, spins: 0x936b100d16f2dfed, trace: 0x960655e6886aae97, ops: 0xa2316bd0983114f7},
		},
	},
	{
		name:   "phi-annealed",
		model:  denseModel,
		config: goldenConfig(func(c *Config) { c.Phi = 0.3; c.PhiEnd = 0.05 }),
		want: map[int64]resultDigest{
			1: {energy: 0xc06cc00000000000, spins: 0xcd9f4b92be7ff451, trace: 0xfffe37e5f89fb306, ops: 0xa2316bd0983114f7},
			2: {energy: 0xc06c800000000000, spins: 0xfb56b063c7ec2197, trace: 0x771986c8b94c2731, ops: 0xa2316bd0983114f7},
			3: {energy: 0xc069000000000000, spins: 0x6105c581c4aca1e9, trace: 0xd1d1bbfe4231cd8b, ops: 0xa2316bd0983114f7},
		},
	},
	{
		name:   "float-couplings",
		model:  floatModel,
		config: goldenConfig(func(c *Config) { c.TileSize = 8 }),
		want: map[int64]resultDigest{
			1: {energy: 0xc084cb3333333335, spins: 0xb2430ccade527aa5, trace: 0x9e191d2e99037475, ops: 0xa969d02c9832277f},
			2: {energy: 0xc083e1eb851eb84b, spins: 0xc6c3f7d0e06b7a2d, trace: 0xd6c1c1d9512db0bd, ops: 0xa969d02c9832277f},
			3: {energy: 0xc084c33333333333, spins: 0x85c71ca8c26b053d, trace: 0xfd7e38b6ec00d461, ops: 0xa969d02c9832277f},
		},
	},
}

// TestDefaultUpdateGolden pins the default (non-colored) update bit for
// bit: BestEnergy and FNV hashes of BestSpins, Trace and Ops on the
// tiled sparse and dense delta paths, the ExactRecompute reference
// path, constant, zero and annealed noise, and integer and float
// couplings, at one and three workers. The relative gates (delta ≡
// exact, sparse ≡ dense, batch ≡ direct) would all still pass if the
// threshold-noise stream shifted on every path at once; this one would
// not.
func TestDefaultUpdateGolden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			m := gc.model(t)
			for _, workers := range []int{1, 3} {
				cfg := gc.config()
				cfg.Workers = workers
				solver, err := NewSolver(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := solver.engine.(*tiling.SparseEngine); ok != gc.sparse {
					t.Fatalf("engine %T, want sparse=%v", solver.engine, gc.sparse)
				}
				for _, seed := range []int64{1, 2, 3} {
					res, err := solver.Run(seed)
					if err != nil {
						t.Fatal(err)
					}
					if got := digestResult(res); got != gc.want[seed] {
						t.Errorf("workers %d seed %d: digest %#v, want %#v", workers, seed, got, gc.want[seed])
					}
				}
			}
		})
	}
}
