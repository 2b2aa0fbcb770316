// Package core implements SOPHIE's modified PRIS algorithm (Section
// III-A, Algorithm 1): the transformation matrix is decomposed into
// symmetric tile pairs, each pair runs many recurrent "local iterations"
// assuming all other tiles constant (symmetric local update), and
// "global iterations" periodically reconcile spin copies and offset
// vectors across tiles. Stochastic global iteration selects only a
// random subset of pairs each round, and stochastic spin update
// broadcasts one randomly chosen spin copy per block instead of the
// average — together these cut computation and communication by
// 25-50% with small quality impact.
//
// The functional simulator mirrors the hardware dataflow (Section
// III-E): tile MVMs run through a tiling.Engine (ideal float64 or the
// internal/opcm device model), partial sums destined for global
// synchronization pass through the 8-bit ADC readout, and every
// hardware-visible operation is tallied into metrics.OpCounts for the
// PPA model.
package core

import (
	"fmt"
	"runtime"

	"sophie/internal/linalg"
	"sophie/internal/tiling"
	"sophie/internal/trace"
)

// SpinUpdate selects how global synchronization reconciles the per-tile
// spin copies of a block column (Section III-A2).
type SpinUpdate int

const (
	// SpinUpdateMajority averages all local copies element-wise and
	// re-binarizes (the non-stochastic baseline).
	SpinUpdateMajority SpinUpdate = iota
	// SpinUpdateStochastic broadcasts one randomly selected copy — the
	// paper's "stochastic spin update".
	SpinUpdateStochastic
)

func (s SpinUpdate) String() string {
	switch s {
	case SpinUpdateMajority:
		return "majority"
	case SpinUpdateStochastic:
		return "stochastic"
	default:
		return fmt.Sprintf("SpinUpdate(%d)", int(s))
	}
}

// EngineFactory builds the tile MVM engine from the decomposed tiles.
// The default factory returns the ideal float64 engine; pass one backed
// by internal/opcm to simulate the device datapath.
type EngineFactory func(tiles []*linalg.Matrix) (tiling.Engine, error)

// Config controls a SOPHIE solve. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// TileSize is the OPCM array order (paper default 64).
	TileSize int
	// LocalIters is the number of local iterations per global iteration
	// (paper default 10).
	LocalIters int
	// GlobalIters is the number of global iterations (paper default 500).
	GlobalIters int
	// TileFraction is the fraction of symmetric tile pairs selected in
	// each global iteration; 1 selects everything, the paper's sweet
	// spot is 0.74.
	TileFraction float64
	// Phi is the dimensionless noise standard deviation (Eq. 5); the
	// per-component noise is Phi times the row norm of C, matching
	// internal/pris.
	Phi float64
	// PhiEnd, when positive, anneals the noise geometrically from Phi
	// down (or up) to PhiEnd across the global iterations — the
	// simulated-annealing-style schedule the PRIS line of work uses as
	// an extension. Zero keeps the noise constant at Phi.
	PhiEnd float64
	// Alpha is the eigenvalue dropout factor (Eq. 4).
	Alpha float64
	// SkipTransform uses C = K directly, skipping the O(n³)
	// eigendecomposition (used for large instances; see DESIGN.md).
	SkipTransform bool
	// TransformRank, when positive, builds the transform through the
	// rank-limited Lanczos path (O(rank·n²)) instead of the dense
	// eigendecomposition — the scalable preprocessing extension.
	// Ignored when SkipTransform is set.
	TransformRank int
	// SpinUpdate selects majority or stochastic spin reconciliation.
	SpinUpdate SpinUpdate
	// Seed drives every random choice (initial state, tile selection,
	// noise, spin picks); runs are reproducible given Seed.
	Seed int64
	// Workers bounds the goroutines simulating parallel PEs;
	// 0 means GOMAXPROCS.
	Workers int
	// EvalEvery evaluates the global energy every that many global
	// iterations (1 = every iteration). Larger values speed up huge
	// functional runs at the cost of tracking granularity.
	EvalEvery int
	// TargetEnergy stops the run early once the best energy reaches
	// this value or lower. Nil disables early stopping.
	TargetEnergy *float64
	// RecordTrace stores the best-so-far energy after every evaluated
	// global iteration.
	RecordTrace bool
	// OnGlobalIteration, when non-nil, is invoked at every evaluated
	// global iteration with the iteration number and best-so-far energy
	// — a live observer for progress tooling. It runs on the solver
	// goroutine; keep it fast.
	OnGlobalIteration func(iter int, bestEnergy float64)
	// ExactRecompute disables the flip-aware incremental datapath and
	// forces the reference full-MVM path even when the engine supports
	// delta updates (tiling.DeltaEngine). The two paths are
	// bit-identical for the ideal engine (DESIGN.md "Incremental
	// compute datapath"); the switch exists for golden equivalence
	// tests and as an escape hatch. Engines without delta support (the
	// opcm device model) always run the reference path.
	ExactRecompute bool
	// DeltaRefreshEvery is the incremental datapath's drift bound K:
	// each pair's running pre-threshold accumulator is fully recomputed
	// every K local iterations (and at the start of every global
	// round). 0 selects the default of 16. Ignored on the reference
	// path.
	DeltaRefreshEvery int
	// Tracer, when non-nil, receives the run's execution events
	// (internal/trace): iteration structure, the op-bearing batch events
	// op accounting is folded from, and — when the recorder's kind mask
	// includes device kinds — sampled device-plane events from engines
	// implementing tiling.TraceSink. Tracing consumes no randomness, so
	// a run's trajectory and Result are bit-identical with a recorder
	// attached or not; a nil Tracer costs one predicted branch per event
	// site. The recorder is concurrency-safe, and batched replicas share
	// it: per-job attribution installs distinct recorders via
	// WithRuntime.
	Tracer *trace.Recorder
	// ForceDense disables sparse datapath selection: the solver always
	// densifies the transform and runs the dense tile engine, even for
	// couplings below the sparse density threshold. The escape hatch for
	// golden comparisons and perf triage; the two paths are bit-identical
	// wherever both can run (DESIGN.md "Sparse datapath"). It cannot be
	// combined with a sparse-built model (ising.NewModelCSR), which has
	// no dense couplings to fall back to.
	ForceDense bool
	// ColoredUpdate opts in to the chromatic parallel update: each
	// diagonal tile's spins are partitioned into independent sets by
	// greedy graph coloring and each class updates concurrently within a
	// local iteration, Gauss-Seidel style — fresh neighbor values between
	// classes instead of the block-synchronous tile recurrence.
	// Off-diagonal tile pairs keep the default update. Requires the
	// sparse datapath; works at any TileSize and under tempering. Runs
	// are bit-reproducible for a seed at any worker count, but follow a
	// different trajectory than the default update (a different
	// algorithm, not a different implementation).
	ColoredUpdate bool
	// Engine overrides the MVM datapath; nil uses the ideal engine.
	Engine EngineFactory
	// InitialSpins optionally fixes the starting ±1 state for every job
	// (primarily for tests and algorithm-equivalence studies); nil draws
	// a random state per job from its seed.
	InitialSpins []int8
	// forceSparse pins the CSR engine for dense-built models regardless
	// of the density threshold — the counterpart of ForceDense, used by
	// the crossover sweep to measure both datapaths at every density.
	// Unexported: the threshold table exists so callers never need this.
	forceSparse bool
}

// DefaultConfig returns the paper's operating point: tile 64, 10 local
// iterations per global, 500 global iterations, all tiles selected,
// stochastic spin update, φ=0.1, α=0.
func DefaultConfig() Config {
	return Config{
		TileSize:     64,
		LocalIters:   10,
		GlobalIters:  500,
		TileFraction: 1.0,
		Phi:          0.1,
		Alpha:        0,
		SpinUpdate:   SpinUpdateStochastic,
		EvalEvery:    1,
	}
}

// Validate reports whether the configuration is usable. It is the
// exported face of the solver's own admission check, for layers that
// accept work long before a solver is built — the sophied job service
// rejects a bad config at submission time (HTTP 400) instead of
// queueing a job that can only fail.
func (c *Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	if c.TileSize <= 0 {
		return fmt.Errorf("core: tile size must be positive, got %d", c.TileSize)
	}
	if c.LocalIters <= 0 {
		return fmt.Errorf("core: local iterations must be positive, got %d", c.LocalIters)
	}
	if c.GlobalIters <= 0 {
		return fmt.Errorf("core: global iterations must be positive, got %d", c.GlobalIters)
	}
	if c.TileFraction <= 0 || c.TileFraction > 1 {
		return fmt.Errorf("core: tile fraction %v outside (0,1]", c.TileFraction)
	}
	if c.Phi < 0 {
		return fmt.Errorf("core: negative noise phi %v", c.Phi)
	}
	if c.PhiEnd < 0 {
		return fmt.Errorf("core: negative final noise %v", c.PhiEnd)
	}
	if c.PhiEnd > 0 && c.Phi == 0 {
		return fmt.Errorf("core: PhiEnd requires a positive starting Phi")
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside [0,1]", c.Alpha)
	}
	if c.TransformRank < 0 {
		return fmt.Errorf("core: negative transform rank %d", c.TransformRank)
	}
	if c.EvalEvery < 1 {
		return fmt.Errorf("core: EvalEvery must be >= 1, got %d", c.EvalEvery)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.DeltaRefreshEvery < 0 {
		return fmt.Errorf("core: negative delta refresh interval %d", c.DeltaRefreshEvery)
	}
	if c.ColoredUpdate {
		if c.ForceDense {
			return fmt.Errorf("core: ColoredUpdate requires the sparse datapath; ForceDense conflicts")
		}
		if c.ExactRecompute {
			return fmt.Errorf("core: ColoredUpdate replaces the incremental datapath; ExactRecompute conflicts")
		}
		if !c.SkipTransform {
			return fmt.Errorf("core: ColoredUpdate requires SkipTransform (the sparse datapath keeps C = K)")
		}
		if c.Engine != nil {
			return fmt.Errorf("core: ColoredUpdate cannot run over a custom engine")
		}
	}
	return nil
}

// sparseDensityThresholds maps tile order to the stored-density cutoff
// below which the solver auto-selects the sparse CSR datapath for
// eligible configurations (SkipTransform, default engine, no
// ForceDense). The cutoffs come from the BenchmarkSparseCrossover
// sweep (re-recorded compactly by the sophiebench "sparse/crossover"
// arm): on the reference host the CSR engine won at every measured
// density up to 80% — by ~1.1x at tile 64, where the per-spin work
// hides most of the kernel difference, and by 1.6–2.3x at tiles
// 128–512, where the dense engine's per-tile-pair dispatch and full
// n² streaming dominate. Since no break-even was observed, each entry
// is set one sweep step below the highest density measured for that
// tile order rather than extrapolated; the flat pre-sweep constant
// remains the fallback outside the measured range. Entries are
// (maxTileOrder, threshold), scanned in order; GSET-style workloads
// sit near 1% density and take the sparse path at every tile order.
var sparseDensityThresholds = []struct {
	maxTile   int
	threshold float64
}{
	{64, 0.45},  // thin (~1.1x) margin: stop short of the 50–80% region
	{128, 0.75}, // >=1.4x sparse win through d=80
	{256, 0.75}, // >=1.6x sparse win through d=80
	{512, 0.75}, // >=1.6x sparse win through d=80
}

// sparseDensityThresholdFallback is the pre-sweep flat constant,
// applied to tile orders beyond the measured range.
const sparseDensityThresholdFallback = 0.10

// sparseDensityThresholdFor resolves the density cutoff for a tile
// order from the measured table, falling back to the flat constant
// outside the measured range.
func sparseDensityThresholdFor(tileSize int) float64 {
	for _, e := range sparseDensityThresholds {
		if tileSize <= e.maxTile {
			return e.threshold
		}
	}
	return sparseDensityThresholdFallback
}

// defaultDeltaRefresh bounds floating-point drift on the incremental
// datapath: after this many consecutive delta updates the accumulator
// is recomputed from scratch. 16 keeps worst-case drift at a few ulps
// while recomputation stays rare at the paper's 10 local iterations.
const defaultDeltaRefresh = 16

func (c *Config) deltaRefresh() int {
	if c.DeltaRefreshEvery > 0 {
		return c.DeltaRefreshEvery
	}
	return defaultDeltaRefresh
}

// clone returns a copy of the config whose reference-typed fields are
// deep-copied where the solver could otherwise alias caller- or
// sibling-owned memory. InitialSpins is copied because callers routinely
// reuse and mutate the slice they passed in (and WithRuntime-derived
// solvers must not share it with their parent); TargetEnergy is copied
// so re-pointing or rewriting the caller's float64 cannot retroactively
// change a solver's stopping rule. Engine and OnGlobalIteration are
// immutable function values and are shared as-is; Tracer is shared as-is
// too — a batch's replicas deliberately feed one recorder.
func (c *Config) clone() Config {
	out := *c
	if c.InitialSpins != nil {
		out.InitialSpins = append([]int8(nil), c.InitialSpins...)
	}
	if c.TargetEnergy != nil {
		t := *c.TargetEnergy
		out.TargetEnergy = &t
	}
	return out
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
