package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/metrics"
	"sophie/internal/pris"
	"sophie/internal/tiling"
	"sophie/internal/trace"
)

// Solver holds the preprocessed state for a SOPHIE solve: the tiled
// transformation matrix programmed into the MVM engine, per-node
// thresholds and noise scales, and the tile-pair geometry. A Solver is
// built once per (model, config) and can run many jobs (Run) with
// different seeds — mirroring the batched execution the hardware uses
// to amortize programming cost.
type Solver struct {
	model      *ising.Model
	cfg        Config
	grid       *tiling.Grid
	engine     tiling.Engine
	pairs      []tiling.Pair
	thresholds []float64 // padded per-node thresholds θ (Eq. 7)
	noiseScale []float64 // padded per-node noise scale ‖Cᵢ‖₂

	// Flip-aware fast path (DESIGN.md "Incremental compute datapath"):
	// delta/binary are the feature-detected optional engine interfaces
	// (nil when unsupported, e.g. the opcm device model), and
	// exactEnergy records whether the couplings are integers so
	// incremental energy tracking is bit-identical to a full walk.
	delta       tiling.DeltaEngine
	binary      tiling.BinaryEngine
	exactEnergy bool

	// Colored-update state (Config.ColoredUpdate): per pair index, the
	// CSR tile and greedy coloring of each diagonal pair (nil for
	// off-diagonal pairs, and nil throughout without ColoredUpdate).
	colored []*coloredTile
}

// readoutQuantizer is implemented by engines with a multi-bit ADC mode
// (the opcm device model); partial sums bound for global synchronization
// pass through it, as in the hardware's 8-bit readout.
type readoutQuantizer interface {
	QuantizeReadout([]float64)
}

// NewSolver preprocesses the model: builds the PRIS transform (or skips
// it), decomposes C into symmetric tile pairs, and programs the MVM
// engine.
//
// Datapath selection (DESIGN.md "Sparse datapath"): sparse-built models
// (ising.NewModelCSR) always take the sparse CSR engine — they have no
// dense couplings to densify — and require SkipTransform with the
// default engine. Dense-built models auto-select the sparse engine when
// they are eligible (SkipTransform, default engine, no ForceDense) and
// the coupling density is below the tile order's measured threshold
// (sparseDensityThresholdFor); the selection
// is invisible in results because the sparse engine is bit-identical to
// the ideal dense engine on the same couplings.
func NewSolver(m *ising.Model, cfg Config) (*Solver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid, err := tiling.NewGrid(m.N(), cfg.TileSize)
	if err != nil {
		return nil, err
	}
	sparse, err := pickSparse(m, &cfg)
	if err != nil {
		return nil, err
	}
	if cfg.ColoredUpdate && !sparse {
		return nil, fmt.Errorf("core: ColoredUpdate requires the sparse datapath (density %.3f >= %.2f; lower the density or build the model with NewModelCSR)",
			modelDensity(m), sparseDensityThresholdFor(cfg.TileSize))
	}

	s := &Solver{
		model:      m,
		cfg:        cfg.clone(),
		grid:       grid,
		pairs:      grid.Pairs(),
		thresholds: make([]float64, grid.PaddedN()),
		noiseScale: make([]float64, grid.PaddedN()),
	}
	if sparse {
		tr, err := pris.NewTransformCSR(m)
		if err != nil {
			return nil, err
		}
		tiles, err := tiling.DecomposePairsCSR(tr.C, grid)
		if err != nil {
			return nil, err
		}
		engine, err := tiling.NewSparseEngine(tiles)
		if err != nil {
			return nil, err
		}
		s.engine = engine
		copy(s.thresholds, tr.Thresholds)
		copy(s.noiseScale, tr.RowNorms)
		if cfg.ColoredUpdate {
			s.colored = make([]*coloredTile, len(tiles))
			for pi, p := range s.pairs {
				if p.IsDiagonal() {
					s.colored[pi] = &coloredTile{tile: tiles[pi], classes: tiles[pi].GreedyColoring()}
				}
			}
		}
	} else {
		var tr *pris.Transform
		if cfg.TransformRank > 0 && !cfg.SkipTransform {
			tr, err = pris.NewTransformRank(m, cfg.Alpha, cfg.TransformRank, cfg.Seed)
		} else {
			tr, err = pris.NewTransform(m, cfg.Alpha, cfg.SkipTransform)
		}
		if err != nil {
			return nil, err
		}
		// Pad C to the grid before decomposition so boundary tiles are full.
		tiles, err := tiling.DecomposePairs(tr.C, grid)
		if err != nil {
			return nil, err
		}
		factory := cfg.Engine
		if factory == nil {
			factory = func(ts []*linalg.Matrix) (tiling.Engine, error) { return tiling.NewIdealEngine(ts) }
		}
		s.engine, err = factory(tiles)
		if err != nil {
			return nil, err
		}
		copy(s.thresholds, tr.Thresholds)
		copy(s.noiseScale, tr.RowNorms)
	}
	if s.engine.TileSize() != cfg.TileSize || s.engine.Pairs() != grid.PairCount() {
		return nil, fmt.Errorf("core: engine shape %d/%d does not match grid %d/%d",
			s.engine.TileSize(), s.engine.Pairs(), cfg.TileSize, grid.PairCount())
	}
	if de, ok := s.engine.(tiling.DeltaEngine); ok {
		s.delta = de
	}
	if be, ok := s.engine.(tiling.BinaryEngine); ok {
		s.binary = be
	}
	s.exactEnergy = m.IntegerCouplings()
	return s, nil
}

// pickSparse decides whether the solve runs on the sparse CSR datapath.
func pickSparse(m *ising.Model, cfg *Config) (bool, error) {
	if !m.HasDense() {
		if cfg.ForceDense {
			return false, fmt.Errorf("core: ForceDense set for a sparse-built model, which has no dense couplings")
		}
		if !cfg.SkipTransform {
			return false, fmt.Errorf("core: sparse-built models require SkipTransform (the eigenvalue dropout would densify the couplings)")
		}
		if cfg.Engine != nil {
			return false, fmt.Errorf("core: custom engine factories take dense tiles; build the model densely to use one")
		}
		return true, nil
	}
	if cfg.ForceDense || !cfg.SkipTransform || cfg.Engine != nil {
		return false, nil
	}
	if cfg.forceSparse {
		return true, nil
	}
	return modelDensity(m) < sparseDensityThresholdFor(cfg.TileSize), nil
}

// modelDensity returns the stored coupling density, nnz/n².
func modelDensity(m *ising.Model) float64 {
	ks, err := m.Sparse()
	if err != nil {
		return 1
	}
	return ks.Density()
}

// WithRuntime returns a solver sharing this solver's preprocessed state
// (transform, tiles, engine) but with runtime-only configuration changes
// applied — the knobs a parameter sweep varies without re-running the
// O(n³) preprocessing: Phi, LocalIters, GlobalIters, TileFraction,
// SpinUpdate, EvalEvery, TargetEnergy, RecordTrace, Tracer, Workers,
// Seed, InitialSpins, ExactRecompute, DeltaRefreshEvery. Changing a
// preprocessing-affecting field (TileSize, Alpha, SkipTransform,
// Engine) is rejected.
func (s *Solver) WithRuntime(modify func(cfg *Config)) (*Solver, error) {
	// Deep-copy before handing the config to modify, and again before
	// storing it: the first keeps modify from mutating this solver's
	// InitialSpins in place through the aliased slice, the second keeps
	// the derived solver from aliasing whatever slice modify installed.
	cfg := s.cfg.clone()
	modify(&cfg)
	if cfg.TileSize != s.cfg.TileSize {
		return nil, fmt.Errorf("core: WithRuntime cannot change TileSize; build a new solver")
	}
	//sophielint:ignore floateq exact identity of the copied config value detects a changed field, not a numeric comparison
	if cfg.Alpha != s.cfg.Alpha || cfg.SkipTransform != s.cfg.SkipTransform || cfg.TransformRank != s.cfg.TransformRank {
		return nil, fmt.Errorf("core: WithRuntime cannot change the transform; build a new solver")
	}
	if cfg.ForceDense != s.cfg.ForceDense || cfg.ColoredUpdate != s.cfg.ColoredUpdate {
		return nil, fmt.Errorf("core: WithRuntime cannot change the datapath (ForceDense, ColoredUpdate); build a new solver")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	clone := *s
	clone.cfg = cfg.clone()
	return &clone, nil
}

// Grid exposes the tile geometry (used by the scheduling/PPA layers).
func (s *Solver) Grid() *tiling.Grid { return s.grid }

// Engine exposes the MVM engine (e.g. to read device-level counters).
func (s *Solver) Engine() tiling.Engine { return s.engine }

// Result reports one SOPHIE job.
type Result struct {
	// BestSpins is the lowest-energy ±1 state seen at any global
	// synchronization point.
	BestSpins []int8
	// BestEnergy is the Hamiltonian at BestSpins.
	BestEnergy float64
	// BestGlobalIter is the (1-based) global iteration where BestEnergy
	// was first reached; 0 means the initial state was never improved.
	BestGlobalIter int
	// GlobalItersRun counts executed global iterations (< GlobalIters
	// when TargetEnergy stopped the run early).
	GlobalItersRun int
	// TotalLocalIters = GlobalItersRun × LocalIters, the paper's
	// "total number of (local) iterations" axis (Fig. 8).
	TotalLocalIters int
	// ReachedTarget reports whether TargetEnergy was met.
	ReachedTarget bool
	// Stopped reports that the run was cancelled at a global-iteration
	// boundary before it finished — by a batch portfolio early-stop
	// (BatchOptions.EarlyStop) or by the caller's context (RunCtx /
	// RunBatchCtx deadline or cancel); the fields above describe the
	// progress it had made by then.
	Stopped bool
	// Trace holds the best-so-far energy at each evaluated global
	// iteration when Config.RecordTrace is set.
	Trace []float64
	// Ops tallies the hardware-visible operations of this job.
	Ops metrics.OpCounts
}

// pairState is the per-PE SRAM buffer set of one symmetric tile pair
// (Section III-A1): local copies of the two spin blocks, the two offset
// vectors, and scratch for partial sums. A pair holds only the buffers
// its datapath touches (see newPairState).
type pairState struct {
	xRow, xCol     []float64
	offRow, offCol []float64
	pRowCol        []float64 // reported partial sum C_{r,c}·x_c
	pColRow        []float64 // reported partial sum C_{c,r}·x_r
	y              []float64 // MVM scratch (reference path)

	// noise is the pair's threshold-noise stream, unset on a colored
	// diagonal pair (its sweep draws the stateless coloredNormal).
	noise normStream

	// Incremental-datapath state: yRow/yCol hold the pure (offset-free)
	// products C_{r,c}·x_c and C_{c,r}·x_r kept alive across local
	// iterations; the flip buffers record which tile-local spins the
	// last threshold pass changed and by how much (±1).
	yRow, yCol         []float64
	rowFlips, colFlips []int
	rowSigns, colSigns []float64

	// Colored-sweep scratch: per-shard flip chunks, merged in shard
	// order into rowFlips/rowSigns (allocated by the first sweep).
	chunkFlips [][]int
	chunkSigns [][]float64
}

// newPairState allocates the buffers one pair's PE uses on its
// datapath: y on the reference path, the accumulators and flip/sign
// buffers on the delta path, and the column-side buffers only for an
// off-diagonal pair (a diagonal tile loops on its row block alone).
// Live PE scratch is the bulk of a large tiled job's heap during its
// solve, so buffers a pair never touches are left nil. The caller seeds
// st.noise on every pair that thresholds with it.
func newPairState(t int, diagonal, delta bool) *pairState {
	st := &pairState{
		xRow:    make([]float64, t),
		offRow:  make([]float64, t),
		pRowCol: make([]float64, t),
	}
	if delta {
		st.yRow = make([]float64, t)
		st.rowFlips = make([]int, 0, t)
		st.rowSigns = make([]float64, 0, t)
	} else {
		st.y = make([]float64, t)
	}
	if diagonal {
		return st
	}
	st.xCol = make([]float64, t)
	st.offCol = make([]float64, t)
	st.pColRow = make([]float64, t)
	if delta {
		st.yCol = make([]float64, t)
		st.colFlips = make([]int, 0, t)
		st.colSigns = make([]float64, 0, t)
	}
	return st
}

// runContext is the per-job view of a Solver: the shared preprocessed
// state plus the engine this job multiplies through. For stateless
// engines (ideal) that is the solver's engine; for engines with
// job-scoped state (tiling.SessionEngine, e.g. the opcm device model)
// it is a per-job session owning its own noise stream — which is what
// makes concurrent jobs over one programmed solver both race-free and
// deterministic. stop, when non-nil, is the batch portfolio's shared
// cancellation flag; ctx, when non-nil, is the caller's cancellation /
// deadline context, observed at the same global-iteration boundaries.
type runContext struct {
	*Solver
	eng    tiling.Engine
	delta  tiling.DeltaEngine
	binary tiling.BinaryEngine
	quant  readoutQuantizer
	stop   *batchStop
	ctx    context.Context
}

// newRunContext resolves the engine view for one job with the given
// seed and feature-detects the optional interfaces on that view.
func (s *Solver) newRunContext(ctx context.Context, seed int64, stop *batchStop) *runContext {
	rc := &runContext{Solver: s, eng: s.engine, delta: s.delta, binary: s.binary, stop: stop, ctx: ctx}
	if se, ok := s.engine.(tiling.SessionEngine); ok {
		rc.eng = se.Session(seedStream(seed, roleDevice, 0))
		// Re-detect on the session view: a session does not inherit the
		// optional fast-path interfaces of the engine behind it.
		rc.delta, rc.binary = nil, nil
		if de, ok := rc.eng.(tiling.DeltaEngine); ok {
			rc.delta = de
		}
		if be, ok := rc.eng.(tiling.BinaryEngine); ok {
			rc.binary = be
		}
	}
	if q, ok := rc.eng.(readoutQuantizer); ok {
		rc.quant = q
	}
	return rc
}

// Run executes one job with the given seed and returns its result.
// Concurrent Run calls on the same Solver are safe with any engine:
// stateless engines are shared directly, and engines with job-scoped
// state (the opcm device model) expose per-job sessions
// (tiling.SessionEngine), so every job's trajectory is a pure function
// of its seed regardless of what runs beside it.
func (s *Solver) Run(seed int64) (*Result, error) {
	return s.runJob(nil, seed, nil)
}

// RunCtx is Run with caller-controlled cancellation: the context's
// cancel or deadline is observed at global-iteration boundaries —
// exactly where the batch portfolio stop is polled — and a cancelled
// job returns its best-so-far Result with Result.Stopped set and a nil
// error. Checking the context consumes no randomness, so a job that
// runs to completion is bit-identical to the same seed under Run; only
// where a run ends can depend on the context, never what it computes.
func (s *Solver) RunCtx(ctx context.Context, seed int64) (*Result, error) {
	return s.runJob(ctx, seed, nil)
}

// runJob executes one job through the lockstep driver (jobrun.go) with
// a pool of its own Config.Workers PEs.
func (s *Solver) runJob(ctx context.Context, seed int64, stop *batchStop) (*Result, error) {
	j, err := newJobRun(s.newRunContext(ctx, seed, stop), seed)
	if err != nil {
		return nil, err
	}
	lockstep([]*jobRun{j}, s.cfg.workers(), nil)
	return &j.res, nil
}

// buildOffset writes into off the sum of partial contributions to output
// block row from every input block except skip — the "offset vector"
// each tile treats as constant during its local iterations.
func (s *Solver) buildOffset(off []float64, partial [][]float64, pIdx func(int, int) int, row, skip int) {
	for i := range off {
		off[i] = 0
	}
	for k := 0; k < s.grid.Tiles; k++ {
		if k == skip {
			continue
		}
		src := partial[pIdx(row, k)]
		for i := range off {
			off[i] += src[i]
		}
	}
}

// buildOffsetCached is the fast path's O(t) offset builder: with the
// running row-sum cache rowSumRow = Σ_k partial[row][k] maintained by
// synchronize, the offset excluding one input block is a single
// subtraction per element instead of a Tiles-wide accumulation. The
// result can differ from buildOffset by ulps (different summation
// order); see DESIGN.md "Incremental compute datapath".
func buildOffsetCached(off, rowSumRow, skip []float64) {
	for i := range off {
		off[i] = rowSumRow[i] - skip[i]
	}
}

// runLocalIterations executes the closed-loop symmetric local update on
// one pair (Section III-A1). For an off-diagonal pair the two tiles
// alternate through the bi-directional array; a diagonal tile loops on
// itself. The final iteration's partial sums are read through the 8-bit
// ADC (QuantizeReadout) for the upcoming synchronization. buf is the
// PE worker's t-length threshold scratch (see threshold).
func (s *runContext) runLocalIterations(st *pairState, p tiling.Pair, pi int, phi float64, buf []float64) {
	cfg := &s.cfg
	grid := s.grid
	rowLo, _ := grid.BlockRange(p.Row)
	colLo, _ := grid.BlockRange(p.Col)
	for l := 0; l < cfg.LocalIters; l++ {
		if p.IsDiagonal() {
			s.eng.Mul(pi, false, st.xRow, st.y)
			for i := range st.y {
				st.y[i] += st.offRow[i]
			}
			s.threshold(st.xRow, st.y, rowLo, st.noise, buf, phi)
			continue
		}
		// Output block Row accumulates C_{Row,Col}·x_Col.
		s.eng.Mul(pi, false, st.xCol, st.y)
		for i := range st.y {
			st.y[i] += st.offRow[i]
		}
		s.threshold(st.xRow, st.y, rowLo, st.noise, buf, phi)
		// Output block Col accumulates C_{Col,Row}·x_Row = tileᵀ·x_Row.
		s.eng.Mul(pi, true, st.xRow, st.y)
		for i := range st.y {
			st.y[i] += st.offCol[i]
		}
		s.threshold(st.xCol, st.y, colLo, st.noise, buf, phi)
	}
	// 8-bit readout of the final local partial sums (no offsets): these
	// update the controller's partial-sum table at synchronization.
	if p.IsDiagonal() {
		s.eng.Mul(pi, false, st.xRow, st.pRowCol)
		s.quantizeReadout(st.pRowCol)
		return
	}
	s.eng.Mul(pi, false, st.xCol, st.pRowCol)
	s.eng.Mul(pi, true, st.xRow, st.pColRow)
	s.quantizeReadout(st.pRowCol)
	s.quantizeReadout(st.pColRow)
}

// runLocalIterationsDelta is the flip-aware counterpart of
// runLocalIterations (DESIGN.md "Incremental compute datapath"). Each
// direction keeps a pure (offset-free) pre-threshold accumulator alive
// across local iterations: a full binary-kernel MVM anchors it at the
// start of the round (and every deltaRefresh iterations to bound float
// drift), and every other iteration patches it with only the columns of
// the spins the previous threshold pass flipped — O(flips·t) instead of
// O(t²). Thresholding consumes the accumulator plus the offset vector
// without mutating it and records the flips for the next patch. The
// final readout recomputes both partial sums with the exact binary
// kernel so the published values carry no accumulated drift. Noise
// draws per element are identical in count and order to the reference
// path, keeping the two paths on the same RNG trajectory: both draw a
// block's deviates into buf, the PE worker's threshold scratch, with
// one normStream.fill before comparing (see thresholdDelta).
func (s *runContext) runLocalIterationsDelta(st *pairState, p tiling.Pair, pi int, phi float64, buf []float64) {
	cfg := &s.cfg
	grid := s.grid
	refresh := cfg.deltaRefresh()
	rowLo, _ := grid.BlockRange(p.Row)
	colLo, _ := grid.BlockRange(p.Col)
	if p.IsDiagonal() {
		for l := 0; l < cfg.LocalIters; l++ {
			s.advance(pi, false, st.xRow, st.rowFlips, st.rowSigns, st.yRow, l%refresh == 0)
			s.thresholdDelta(st.xRow, st.yRow, st.offRow, rowLo, st.noise, buf, phi, &st.rowFlips, &st.rowSigns)
		}
		s.binaryMul(pi, false, st.xRow, st.pRowCol)
		s.quantizeReadout(st.pRowCol)
		return
	}
	for l := 0; l < cfg.LocalIters; l++ {
		// Output block Row accumulates C_{Row,Col}·x_Col; x_Col last
		// changed in the previous iteration's second threshold pass.
		s.advance(pi, false, st.xCol, st.colFlips, st.colSigns, st.yRow, l%refresh == 0)
		s.thresholdDelta(st.xRow, st.yRow, st.offRow, rowLo, st.noise, buf, phi, &st.rowFlips, &st.rowSigns)
		// Output block Col accumulates C_{Col,Row}·x_Row = tileᵀ·x_Row,
		// where x_Row was just updated above.
		s.advance(pi, true, st.xRow, st.rowFlips, st.rowSigns, st.yCol, l%refresh == 0)
		s.thresholdDelta(st.xCol, st.yCol, st.offCol, colLo, st.noise, buf, phi, &st.colFlips, &st.colSigns)
	}
	s.binaryMul(pi, false, st.xCol, st.pRowCol)
	s.binaryMul(pi, true, st.xRow, st.pColRow)
	s.quantizeReadout(st.pRowCol)
	s.quantizeReadout(st.pColRow)
}

// threshold applies the noisy comparison of Eq. 5-6 element-wise,
// writing binarized states into dst. blockLo maps tile-local indices to
// padded global node indices for θ and the noise scale. phi is the
// (possibly annealed) noise level of the current global iteration. With
// phi > 0 it runs in two passes, like thresholdDelta: the block's
// len(y) deviates first (rng.fill into buf, the caller's scratch of at
// least len(y)), then the comparison over them.
func (s *Solver) threshold(dst, y []float64, blockLo int, rng normStream, buf []float64, phi float64) {
	if phi > 0 {
		buf = buf[:len(y)]
		rng.fill(buf)
	}
	for i := range y {
		v := y[i]
		if phi > 0 {
			v += buf[i] * phi * s.noiseScale[blockLo+i]
		}
		if v < s.thresholds[blockLo+i] {
			dst[i] = 0
		} else {
			dst[i] = 1
		}
	}
}

// thresholdDelta is the fast path's threshold pass: it reads the pure
// accumulator y plus the offset vector off (leaving y intact for the
// next delta patch) and records which tile-local spins changed, and by
// how much (±1), into the caller's flip buffers. The arithmetic per
// element — one add, then the same noise expression — rounds identically
// to the reference threshold applied after the reference path's
// y += off loop. This pass runs once per element per local iteration
// and dominates the fast path's cost, so it runs as two plain passes
// over buf, the PE worker's scratch (len ≥ len(y)):
//
//  1. Pre-threshold values. With phi > 0, rng.fill draws the block's
//     deviates into buf in one tight ziggurat loop and a second loop
//     folds them into y + off; with phi = 0 buf is just y + off.
//  2. Compare and record, branch-free: every element writes its new
//     state and a candidate flip record, and the record count advances
//     by old XOR new, so the loop carries no data-dependent branch for
//     the unpredictable comparisons to mispredict.
//
// The comparison consumes no randomness, so drawing the block up front
// takes the same words in the same order as one NormFloat64 per
// element inside the compare loop did, and normStream is bit-identical
// to NormFloat64: every trajectory is unchanged. DESIGN.md "Incremental
// compute datapath" has the per-element costs.
func (s *Solver) thresholdDelta(dst, y, off []float64, blockLo int, rng normStream, buf []float64, phi float64, flips *[]int, signs *[]float64) {
	n := len(y)
	v := buf[:n]
	if phi > 0 {
		rng.fill(v)
		scale := s.noiseScale[blockLo : blockLo+n]
		for i, yv := range y {
			v[i] = yv + off[i] + v[i]*phi*scale[i]
		}
	} else {
		for i, yv := range y {
			v[i] = yv + off[i]
		}
	}
	th := s.thresholds[blockLo : blockLo+n]
	f := slices.Grow((*flips)[:0], n)[:n]
	sg := slices.Grow((*signs)[:0], n)[:n]
	k := 0
	for i, vi := range v {
		up := 0
		if vi >= th[i] {
			up = 1
		}
		was := int(dst[i])
		dst[i] = float64(up)
		f[k], sg[k] = i, float64(up-was)
		k += up ^ was
	}
	*flips, *signs = f[:k], sg[:k]
}

// advance brings a pre-threshold accumulator up to date with its input
// vector x: a full binary-kernel recompute when the round (or the
// deltaRefresh drift bound) demands an anchor, a flip patch otherwise.
// The patch-versus-recompute choice is adaptive — patching costs
// O(flips·t) against the gather kernel's O(ones·t) with ones ≈ t/2, so
// a noisy round that flips half a block falls back to the recompute,
// which also re-anchors the accumulator for free.
func (s *runContext) advance(pi int, transposed bool, x []float64, flips []int, signs []float64, y []float64, full bool) {
	if full || 2*len(flips) >= len(y) {
		s.binaryMul(pi, transposed, x, y)
		return
	}
	s.delta.MulDelta(pi, transposed, flips, signs, y)
}

// binaryMul routes a full MVM on a {0,1} vector through the engine's
// exact binary kernel when available, falling back to the general Mul
// (bit-identical for binary inputs by the BinaryEngine contract).
func (s *runContext) binaryMul(pi int, transposed bool, x, y []float64) {
	if s.binary != nil {
		s.binary.MulBinary(pi, transposed, x, y)
		return
	}
	s.eng.Mul(pi, transposed, x, y)
}

func (s *runContext) quantizeReadout(v []float64) {
	if s.quant != nil {
		s.quant.QuantizeReadout(v)
	}
}

// synchronize performs the controller's global synchronization: selected
// pairs publish their partial sums, then each block column's spin copies
// are reconciled (majority or stochastic pick) and broadcast. rowSum,
// when non-nil, is the fast path's running row-sum cache over the
// partial-sum table and is patched in place as new partials land.
// copies is per-Run reconciliation scratch (one bucket per block) whose
// inner slices are reused across global iterations. The trace run
// receives one KindSyncPair event per published pair (carrying the
// pair's publish and gather traffic) and one KindSyncBlock per
// reconciled block.
func (s *Solver) synchronize(states []*pairState, selected []int, sGlobal []float64,
	partial [][]float64, pIdx func(int, int) int, ctrl *rand.Rand,
	rowSum [][]float64, copies [][][]float64, g int, run *trace.Run) {

	grid := s.grid

	// Publish partial sums. The row-sum cache absorbs the difference
	// between the new and previously published partial before the copy
	// overwrites it, keeping rowSum[r] = Σ_k partial[r][k] in O(t).
	publish := func(row int, dst, src []float64) {
		if rowSum != nil {
			rs := rowSum[row]
			for i := range dst {
				rs[i] += src[i] - dst[i]
			}
		}
		copy(dst, src)
	}
	for _, pi := range selected {
		p := s.pairs[pi]
		st := states[pi]
		publish(p.Row, partial[pIdx(p.Row, p.Col)], st.pRowCol)
		if !p.IsDiagonal() {
			publish(p.Col, partial[pIdx(p.Col, p.Row)], st.pColRow)
		}
		run.SyncPair(g, pi)
	}

	// Gather spin copies per block into the reused scratch buckets (the
	// gather traffic is carried by the pair's KindSyncPair event above).
	for b := range copies {
		copies[b] = copies[b][:0]
	}
	for _, pi := range selected {
		p := s.pairs[pi]
		st := states[pi]
		copies[p.Row] = append(copies[p.Row], st.xRow)
		if !p.IsDiagonal() {
			copies[p.Col] = append(copies[p.Col], st.xCol)
		}
	}

	// Reconcile and broadcast.
	for b := 0; b < grid.Tiles; b++ {
		cs := copies[b]
		if len(cs) == 0 {
			continue // no selected tile touched this block; state unchanged
		}
		dst := grid.Block(sGlobal, b)
		switch s.cfg.SpinUpdate {
		case SpinUpdateStochastic:
			copy(dst, cs[ctrl.Intn(len(cs))])
		default: // majority of all copies
			for i := range dst {
				sum := 0.0
				for _, c := range cs {
					sum += c[i]
				}
				if sum*2 >= float64(len(cs)) {
					dst[i] = 1
				} else {
					dst[i] = 0
				}
			}
		}
		run.SyncBlock(g, b, len(cs))
	}
}

// energyTracker carries the Hamiltonian across evaluation points so sync
// points where few (or no) spins changed avoid re-walking every edge.
// For integer couplings (ising.Model.IntegerCouplings) the incremental
// updates are bit-identical to a full Energy walk — every intermediate
// value stays an exactly representable float64 integer — so the fast
// path's traces match the reference path's. For float couplings the
// tracker always takes the full walk, preserving golden equivalence;
// the unchanged-state shortcut is exact regardless.
type energyTracker struct {
	model *ising.Model
	exact bool
	spins []int8
	e     float64
}

func newEnergyTracker(m *ising.Model, spins []int8, e float64, exact bool) *energyTracker {
	tr := &energyTracker{model: m, exact: exact, spins: make([]int8, len(spins)), e: e}
	copy(tr.spins, spins)
	return tr
}

// energyAt returns the Hamiltonian of cur and updates the tracked state.
// Incremental EnergyDelta accumulation costs O(changed·N) versus the
// O(N²) full walk, so it engages below the changed ≈ N/2 crossover.
func (tr *energyTracker) energyAt(cur []int8) float64 {
	changed := 0
	for i, v := range cur {
		if v != tr.spins[i] {
			changed++
		}
	}
	if changed == 0 {
		return tr.e
	}
	if tr.exact && changed*2 <= len(cur) {
		for i, v := range cur {
			if v != tr.spins[i] {
				tr.e += tr.model.EnergyDelta(tr.spins, i)
				tr.spins[i] = v
			}
		}
		return tr.e
	}
	tr.e = tr.model.Energy(cur)
	copy(tr.spins, cur)
	return tr.e
}

// fillSpins converts the first len(dst) entries of a padded binary state
// to ±1 spins in place.
func fillSpins(dst []int8, binary []float64) {
	for i := range dst {
		if binary[i] != 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
}

// bestSpinsFrom converts the first n entries of a padded binary state to
// ±1 spins.
func bestSpinsFrom(binary []float64, n int) []int8 {
	spins := make([]int8, n)
	fillSpins(spins, binary)
	return spins
}

// Solve is a convenience wrapper: build a solver and run one job.
func Solve(m *ising.Model, cfg Config) (*Result, error) {
	s, err := NewSolver(m, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(cfg.Seed)
}

// SolveCtx is Solve's cancellable sibling: the run winds down at its
// next global-iteration boundary once ctx is cancelled or expires,
// returning best-so-far with Stopped set (RunCtx semantics). A run
// that completes is bit-identical to Solve with the same inputs.
func SolveCtx(ctx context.Context, m *ising.Model, cfg Config) (*Result, error) {
	s, err := NewSolver(m, cfg)
	if err != nil {
		return nil, err
	}
	return s.RunCtx(ctx, cfg.Seed)
}
