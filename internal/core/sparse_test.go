package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/opcm"
	"sophie/internal/tiling"
	"sophie/internal/trace"
)

// sparseProblem is the G22-mini workload at sparse density: 125 nodes
// and 650 edges store at 650·2/125² ≈ 8.3% density, below the 10%
// auto-pick threshold (testProblem's 12.1% deliberately stays above
// it, so the pre-existing suite keeps exercising the dense engine).
func sparseProblem(t testing.TB, scheme graph.WeightScheme) (*graph.Graph, *ising.Model) {
	t.Helper()
	g, err := graph.Random(125, 650, scheme, 53122)
	if err != nil {
		t.Fatal(err)
	}
	return g, ising.FromMaxCut(g)
}

func sparseConfig() Config {
	cfg := quickConfig()
	cfg.SkipTransform = true
	cfg.RecordTrace = true
	return cfg
}

// TestSparseAutoPickBitIdenticalToDense is the golden gate of the
// sparse datapath: for an eligible instance (SkipTransform, default
// engine, density below the threshold) the auto-picked CSR engine must
// reproduce the ForceDense solve bit for bit — spins, energies, trace,
// and op counts — across seeds and weight schemes, on both the delta
// and the exact-recompute paths.
func TestSparseAutoPickBitIdenticalToDense(t *testing.T) {
	schemes := map[string]graph.WeightScheme{
		"unit":    graph.WeightUnit,
		"pm1":     graph.WeightPM1,
		"uniform": graph.WeightUniform,
	}
	for name, scheme := range schemes {
		t.Run(name, func(t *testing.T) {
			_, m := sparseProblem(t, scheme)
			for _, exact := range []bool{false, true} {
				for _, seed := range []int64{1, 2, 3} {
					cfg := sparseConfig()
					cfg.ExactRecompute = exact

					dense := cfg
					dense.ForceDense = true
					denseSolver, err := NewSolver(m, dense)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := denseSolver.engine.(*tiling.SparseEngine); ok {
						t.Fatal("ForceDense solver picked the sparse engine")
					}
					ref, err := denseSolver.Run(seed)
					if err != nil {
						t.Fatal(err)
					}

					sparseSolver, err := NewSolver(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := sparseSolver.engine.(*tiling.SparseEngine); !ok {
						t.Fatalf("eligible instance did not auto-pick the sparse engine (got %T)", sparseSolver.engine)
					}
					got, err := sparseSolver.Run(seed)
					if err != nil {
						t.Fatal(err)
					}

					label := name + map[bool]string{false: "/delta", true: "/exact"}[exact]
					requireIdentical(t, label, ref, got)
					_ = label
				}
			}
		})
	}
}

// TestSparseBuiltModelMatchesDenseBuilt pins the ising.FromMaxCutCSR
// construction path: a model built straight from CSR couplings (never
// materializing the dense matrix) must solve bit-identically to the
// dense-built model of the same graph.
func TestSparseBuiltModelMatchesDenseBuilt(t *testing.T) {
	g, mDense := sparseProblem(t, graph.WeightUnit)
	mSparse := ising.FromMaxCutCSR(g)
	if mSparse.HasDense() {
		t.Fatal("FromMaxCutCSR produced a dense-backed model")
	}
	cfg := sparseConfig()
	for _, seed := range []int64{1, 2, 3} {
		solver, err := NewSolver(mSparse, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solver.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSolver(mDense, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "csr-built vs dense-built", want, got)
	}
}

// TestOpcmEngineUnaffectedBySparseAvailability pins the S3 fallback
// contract on a sparse-density instance: a custom engine factory (the
// opcm device model) opts the solve out of sparse selection entirely,
// its sessions expose no delta kernels, and the solve therefore runs
// the exact-recompute path — identical whether or not ExactRecompute
// is set.
func TestOpcmEngineUnaffectedBySparseAvailability(t *testing.T) {
	_, m := sparseProblem(t, graph.WeightUnit)
	cfg := sparseConfig()
	cfg.GlobalIters = 20
	cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
		return opcm.NewEngine(tiles, 0, opcm.DefaultParams())
	}
	solver, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := solver.engine.(*tiling.SparseEngine); ok {
		t.Fatal("custom engine factory must disable sparse selection")
	}
	if solver.delta != nil {
		t.Fatal("opcm engine must not expose delta kernels")
	}
	dev, err := solver.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	exact := cfg
	exact.ExactRecompute = true
	refSolver, err := NewSolver(m, exact)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSolver.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "opcm on sparse-density instance", ref, dev)
}

func coloredConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.TileSize = n
	cfg.GlobalIters = 30
	cfg.LocalIters = 5
	cfg.Phi = 0.15
	cfg.SkipTransform = true
	cfg.ColoredUpdate = true
	cfg.RecordTrace = true
	return cfg
}

// coloredShape is one way a colored solve runs: a lone job on one tile
// or tiled, or a tempering ladder. tileSize 0 means one tile spanning
// the model; 48 does not divide sparseProblem's 125 spins, so the tiled
// shapes carry a padded boundary block and off-diagonal pairs on the
// default delta update beside the colored diagonal pairs.
type coloredShape struct {
	name     string
	tileSize int
	ladder   bool
}

var coloredShapes = []coloredShape{
	{name: "single-tile"},
	{name: "tiled", tileSize: 48},
	{name: "tempering", tileSize: 48, ladder: true},
}

// coloredShapeSolver builds the solver for m on the shape with
// coloredConfig adjusted by mutate.
func coloredShapeSolver(t *testing.T, m *ising.Model, sh coloredShape, mutate func(*Config)) *Solver {
	t.Helper()
	cfg := coloredConfig(m.N())
	if sh.tileSize > 0 {
		cfg.TileSize = sh.tileSize
	}
	mutate(&cfg)
	solver, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return solver
}

// runColoredShape solves m on the shape with coloredConfig adjusted by
// mutate, and returns every job's result: one for a lone run, one per
// rung for a ladder.
func runColoredShape(t *testing.T, m *ising.Model, sh coloredShape, mutate func(*Config)) *BatchResult {
	t.Helper()
	solver := coloredShapeSolver(t, m, sh, mutate)
	if sh.ladder {
		b, err := solver.RunTempering(mustSeedRange(17, 3), TemperingOptions{TMin: 0.05, TMax: 0.3, ExchangeEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	res, err := solver.Run(17)
	if err != nil {
		t.Fatal(err)
	}
	return aggregate([]*Result{res})
}

// TestColoredUpdateWorkerCountIndependence pins the chromatic update's
// determinism contract: the trajectory is a pure function of the seed
// at any worker count — stateless per-(step,spin) noise, ascending
// merged flip lists, and output-range-sharded flip application make
// 1 worker and many workers produce bit-identical results, on one tile,
// tiled, and across a tempering ladder's shared pool.
func TestColoredUpdateWorkerCountIndependence(t *testing.T) {
	_, m := sparseProblem(t, graph.WeightUnit)
	for _, sh := range coloredShapes {
		t.Run(sh.name, func(t *testing.T) {
			var ref *BatchResult
			for _, workers := range []int{1, 3, 8} {
				b := runColoredShape(t, m, sh, func(c *Config) { c.Workers = workers })
				if ref == nil {
					ref = b
					continue
				}
				for r := range b.Results {
					requireIdentical(t, fmt.Sprintf("workers %d job %d", workers, r), ref.Results[r], b.Results[r])
				}
				if sh.ladder && (b.Tempering.Accepted != ref.Tempering.Accepted || b.Tempering.Attempted != ref.Tempering.Attempted) {
					t.Fatalf("workers %d: exchanges %d/%d, want %d/%d", workers,
						b.Tempering.Accepted, b.Tempering.Attempted, ref.Tempering.Accepted, ref.Tempering.Attempted)
				}
			}
		})
	}
}

// resultDigest condenses a result into the bits TestColoredUpdateGolden
// pins: BestEnergy, and FNV-64a hashes of BestSpins, the Trace's float
// bits, and the Ops counters.
type resultDigest struct {
	energy, spins, trace, ops uint64
}

func digestResult(res *Result) resultDigest {
	h := fnv.New64a()
	for _, sp := range res.BestSpins {
		h.Write([]byte{byte(sp)})
	}
	d := resultDigest{energy: math.Float64bits(res.BestEnergy), spins: h.Sum64()}
	h.Reset()
	for _, v := range res.Trace {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	d.trace = h.Sum64()
	h.Reset()
	fmt.Fprintf(h, "%+v", res.Ops)
	d.ops = h.Sum64()
	return d
}

// TestColoredUpdateGolden pins the single-tile colored trajectory bit
// for bit on the unit-weight sparseProblem, at two worker counts and
// three seeds. The values were recorded from the standalone colored
// loop the update used to run in; the colored sweep is now the local
// update of a diagonal pair inside jobRun, and on one tile pair 0 with
// a zero offset must replay that loop exactly.
func TestColoredUpdateGolden(t *testing.T) {
	_, m := sparseProblem(t, graph.WeightUnit)
	want := map[int64]resultDigest{
		1: {energy: 0xc071a00000000000, spins: 0x9d162d0c21025d0e, trace: 0xcb8bb0ccfe546c09, ops: 0x184ee066011814bc},
		2: {energy: 0xc071800000000000, spins: 0xd9d0c597f59dbd52, trace: 0x242c9c3ac6737cfb, ops: 0x184ee066011814bc},
		3: {energy: 0xc071a00000000000, spins: 0x45a71523dac1161e, trace: 0x8a62bca6aa5412fc, ops: 0x184ee066011814bc},
	}
	for _, workers := range []int{1, 3} {
		cfg := coloredConfig(m.N())
		cfg.Workers = workers
		solver, err := NewSolver(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			res, err := solver.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestResult(res); got != want[seed] {
				t.Errorf("workers %d seed %d: digest %#v, want %#v", workers, seed, got, want[seed])
			}
		}
	}
}

// TestColoredUpdateResultConsistency checks every colored shape is
// self-consistent: ±1 spins, a best energy bit-equal to the model's own
// evaluation of the best spins, a monotone best-so-far trace, a positive
// cut, and op counters equal to the fold of the recorded event stream.
// It also checks which pairs carry a threshold-noise source: a colored
// diagonal pair draws only the stateless coloredNormal stream, so only
// the pairs on the default update (off-diagonal ones, when tiled) get one.
func TestColoredUpdateResultConsistency(t *testing.T) {
	g, m := sparseProblem(t, graph.WeightUnit)
	for _, sh := range coloredShapes {
		t.Run(sh.name, func(t *testing.T) {
			j, err := newJobRun(coloredShapeSolver(t, m, sh, func(*Config) {}).newRunContext(nil, 17, nil), 17)
			if err != nil {
				t.Fatal(err)
			}
			seeded := 0
			for pi, st := range j.states {
				if colored, has := j.coloredPair(pi), st.noise.src != nil; colored == has {
					t.Fatalf("pair %d: colored %v but noise source %v", pi, colored, has)
				}
				if st.noise.src != nil {
					seeded++
				}
			}
			if want := len(j.states) - j.rc.grid.Tiles; seeded != want {
				t.Fatalf("%d pairs seeded a noise source, want the %d off-diagonal ones", seeded, want)
			}
			j.finish()

			rec := trace.NewRecorder(trace.Options{Capacity: 1 << 16})
			b := runColoredShape(t, m, sh, func(c *Config) { c.Tracer = rec })
			for r, res := range b.Results {
				if len(res.BestSpins) != m.N() {
					t.Fatalf("job %d: got %d spins for %d-spin model", r, len(res.BestSpins), m.N())
				}
				for i, sp := range res.BestSpins {
					if sp != 1 && sp != -1 {
						t.Fatalf("job %d: spin %d is %d, want ±1", r, i, sp)
					}
				}
				if math.Float64bits(res.BestEnergy) != math.Float64bits(m.Energy(res.BestSpins)) {
					t.Fatalf("job %d: BestEnergy %v does not match model energy %v", r, res.BestEnergy, m.Energy(res.BestSpins))
				}
				for i := 1; i < len(res.Trace); i++ {
					if res.Trace[i] > res.Trace[i-1] {
						t.Fatalf("job %d: trace not monotone at %d: %v > %v", r, i, res.Trace[i], res.Trace[i-1])
					}
				}
				if cut := g.CutValue(res.BestSpins); cut <= 0 {
					t.Fatalf("job %d: non-positive cut %v", r, cut)
				}
			}
			snap := rec.Snapshot()
			if snap.Dropped != 0 || snap.Runs != len(b.Results) {
				t.Fatalf("recorder dropped %d events over %d runs, want 0 over %d", snap.Dropped, snap.Runs, len(b.Results))
			}
			if folded := trace.FoldOps(snap.Meta, snap.Events); folded != b.Ops {
				t.Fatalf("Ops is not the fold of the trace:\n%s\nvs\n%s", b.Ops.String(), folded.String())
			}
		})
	}
}

// TestColoredSingleTileOffsetResidue pins the one way a single-tile
// colored run can leave the standalone colored loop's trajectory: the
// sweep thresholds y + offRow, and the row-sum offset cache
// (buildOffsetCached) leaves offRow exactly zero on integer couplings —
// which is why TestColoredUpdateGolden replays bit for bit — but with
// ulp-scale residues on float couplings, where a comparison landing
// within an ulp of θ could then resolve the other way.
func TestColoredSingleTileOffsetResidue(t *testing.T) {
	g, _ := sparseProblem(t, graph.WeightUnit)
	fg := graph.New(g.N())
	for i, e := range g.Edges() {
		if err := fg.AddEdge(e.U, e.V, 0.1+0.37*float64(i%7)+0.013*float64(i%11)); err != nil {
			t.Fatal(err)
		}
	}
	residues := func(m *ising.Model) int {
		s, err := NewSolver(m, coloredConfig(m.N()))
		if err != nil {
			t.Fatal(err)
		}
		// Step the job by hand (a one-wide pool runs every shard inline)
		// to read pair 0's offset after each load phase.
		j, err := newJobRun(s.newRunContext(nil, 1, nil), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer j.finish()
		j.pool = &pePool{width: 1}
		nonzero := 0
		for it := 1; it <= s.cfg.GlobalIters; it++ {
			j.beginIter(it)
			for _, v := range j.states[0].offRow {
				if v != 0 {
					nonzero++
				}
			}
			j.localPair(0, new(peScratch))
			j.endIter(it)
		}
		return nonzero
	}
	if n := residues(ising.FromMaxCutCSR(g)); n != 0 {
		t.Fatalf("unit couplings: %d nonzero single-tile offsets, want 0", n)
	}
	if n := residues(ising.FromMaxCutCSR(fg)); n == 0 {
		t.Fatal("float couplings: no offset residue; update the compat note in README.md")
	}
}

// TestColoredQualityFloor guards the colored update against silently
// dropping to random-quality cuts: on a 10k-node 3-regular graph at
// examples/millionspin's configuration (20 global × 5 local iterations,
// φ 0.15, EvalEvery 5) it must cut at least 85% of the edges (89.2%
// measured; random spins cut about 50%).
func TestColoredQualityFloor(t *testing.T) {
	g, err := graph.RandomRegular(10_000, 3, graph.WeightUnit, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TileSize = g.N()
	cfg.SkipTransform = true
	cfg.GlobalIters = 20
	cfg.LocalIters = 5
	cfg.Phi = 0.15
	cfg.EvalEvery = 5
	cfg.ColoredUpdate = true
	res, err := Solve(ising.FromMaxCutCSR(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if frac := g.CutValue(res.BestSpins) / g.TotalWeight(); frac < 0.85 {
		t.Fatalf("colored cut %.4f of edges, want >= 0.85", frac)
	}
}

// TestSparseSelectionErrors pins the admission rules of the sparse
// datapath and the colored update.
func TestSparseSelectionErrors(t *testing.T) {
	g, mDense := sparseProblem(t, graph.WeightUnit)
	mSparse := ising.FromMaxCutCSR(g)

	t.Run("force-dense on sparse-built model", func(t *testing.T) {
		cfg := sparseConfig()
		cfg.ForceDense = true
		if _, err := NewSolver(mSparse, cfg); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("sparse-built model needs SkipTransform", func(t *testing.T) {
		cfg := quickConfig()
		if _, err := NewSolver(mSparse, cfg); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("sparse-built model rejects custom engine", func(t *testing.T) {
		cfg := sparseConfig()
		cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
			return tiling.NewIdealEngine(tiles)
		}
		if _, err := NewSolver(mSparse, cfg); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("colored update runs tiled", func(t *testing.T) {
		cfg := coloredConfig(mDense.N())
		cfg.TileSize = 32
		solver, err := NewSolver(mDense, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if solver.grid.Tiles != 4 {
			t.Fatalf("%d tiles, want 4", solver.grid.Tiles)
		}
		res, err := solver.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		if res.GlobalItersRun != cfg.GlobalIters {
			t.Fatalf("ran %d of %d global iterations", res.GlobalItersRun, cfg.GlobalIters)
		}
	})
	t.Run("colored update needs sparse density", func(t *testing.T) {
		// A complete graph stores at ~99% density, above every entry of
		// the per-tile-order threshold table.
		dense := ising.FromMaxCut(graph.KGraph(64))
		cfg := coloredConfig(dense.N())
		if _, err := NewSolver(dense, cfg); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("colored update config conflicts", func(t *testing.T) {
		mutations := []func(*Config){
			func(c *Config) { c.ForceDense = true },
			func(c *Config) { c.ExactRecompute = true },
			func(c *Config) { c.SkipTransform = false },
			func(c *Config) {
				c.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
					return tiling.NewIdealEngine(tiles)
				}
			},
		}
		for i, mutate := range mutations {
			cfg := coloredConfig(mDense.N())
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("mutation %d: want validation error", i)
			}
		}
	})
	t.Run("WithRuntime cannot change datapath", func(t *testing.T) {
		solver, err := NewSolver(mDense, sparseConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := solver.WithRuntime(func(c *Config) { c.ForceDense = true }); err == nil {
			t.Fatal("want error for ForceDense change")
		}
		if _, err := solver.WithRuntime(func(c *Config) { c.ColoredUpdate = true }); err == nil {
			t.Fatal("want error for ColoredUpdate change")
		}
	})
}

// TestSparseBuiltScale runs a 10k-node random-regular instance through
// the sparse-built path end to end — the shape of the million-spin
// workload at test-suite cost. The full 100k smoke lives behind
// SOPHIE_SPARSE_SMOKE=1 (exercised by the CI sparse-smoke job).
func TestSparseBuiltScale(t *testing.T) {
	n := 10_000
	if os.Getenv("SOPHIE_SPARSE_SMOKE") != "" {
		n = 100_000
	}
	g, err := graph.RandomRegular(n, 3, graph.WeightUnit, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ising.FromMaxCutCSR(g)
	cfg := DefaultConfig()
	cfg.TileSize = n
	cfg.GlobalIters = 3
	cfg.LocalIters = 2
	cfg.Phi = 0.15
	cfg.SkipTransform = true
	res, err := Solve(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut := g.CutValue(res.BestSpins); cut <= 0 {
		t.Fatalf("non-positive cut %v on %d-node instance", cut, n)
	}
}
