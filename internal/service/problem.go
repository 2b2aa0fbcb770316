package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/opcm"
	"sophie/internal/problem"
	"sophie/internal/tiling"
)

// ErrBadSpec tags submission-time validation failures; the HTTP layer
// maps it to 400. Everything wrapped in it is safe to echo back to the
// submitter.
var ErrBadSpec = errors.New("bad job spec")

func specErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// wrapSpecError folds a problem-spec rejection into the ErrBadSpec
// family while keeping the structured *problem.SpecError reachable via
// errors.As, so the HTTP layer can surface {error, field} and the
// metrics layer can label the reject reason.
func wrapSpecError(serr *problem.SpecError) error {
	return fmt.Errorf("%w: %w", ErrBadSpec, serr)
}

// solverKey identifies a preprocessed solver: the problem content plus
// every preprocessing-affecting config field. Jobs mapping to the same
// key share one cached solver and differ only through WithRuntime.
type solverKey struct {
	// problem is the sha256 of the lowered model (couplings + field),
	// so every source lowering to the same Hamiltonian — a preset, an
	// inline graph, or the equivalent maxcut spec — shares one entry.
	problem       string
	tileSize      int
	alpha         float64
	skipTransform bool
	transformRank int
	// rankSeed pins the randomness of the rank-limited Lanczos
	// transform, which draws from Config.Seed; zero when the full
	// eigendecomposition (rank 0) makes preprocessing deterministic.
	rankSeed int64
	device   bool
}

// resolveSpec validates a submission and resolves it into the job's
// immutable fields: compiled problem, seeds, configs, cache key, and
// batch options. All failures wrap ErrBadSpec.
func (m *Manager) resolveSpec(spec JobSpec) (*job, error) {
	prob, err := m.loadProblem(spec)
	if err != nil {
		var serr *problem.SpecError
		if errors.As(err, &serr) {
			return nil, wrapSpecError(serr)
		}
		return nil, err
	}
	c, err := problem.Compile(prob)
	if err != nil {
		// Lower/Compile errors are semantic spec failures (bad clause
		// index, non-finite weight, ...) — still 400s, labelled with
		// the union field so clients know where to look.
		return nil, wrapSpecError(&problem.SpecError{Field: "problem", Reason: "invalid", Msg: err.Error()})
	}

	seeds := spec.Seeds
	if len(seeds) == 0 {
		replicas := spec.Replicas
		if replicas == 0 {
			replicas = 1
		}
		if replicas < 0 {
			return nil, specErrorf("negative replica count %d", replicas)
		}
		seed := spec.Seed
		if seed == 0 {
			seed = 1
		}
		var err error
		seeds, err = core.SeedRange(seed, replicas)
		if err != nil {
			return nil, specErrorf("%v", err)
		}
	}
	if len(seeds) > m.cfg.MaxReplicas {
		return nil, specErrorf("%d replicas exceed the server limit of %d", len(seeds), m.cfg.MaxReplicas)
	}
	if spec.TimeoutMS < 0 {
		return nil, specErrorf("negative timeout_ms %d", spec.TimeoutMS)
	}

	runCfg, err := buildConfig(spec.Config, spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.EarlyStop && runCfg.TargetEnergy == nil {
		return nil, specErrorf("early_stop requires config.target_energy")
	}
	if t := spec.Tempering; t != nil {
		// Mirror core's runTemperingCtx validation at admission so a bad
		// ladder is a 400, not a failed job.
		if spec.EarlyStop {
			return nil, specErrorf("tempering and early_stop cannot combine (tempering has its own stop rule)")
		}
		if len(seeds) < 2 {
			return nil, specErrorf("tempering needs >= 2 replicas (one per rung), got %d", len(seeds))
		}
		if t.TMin <= 0 || t.TMax <= t.TMin {
			return nil, specErrorf("tempering needs 0 < tmin < tmax, got [%v, %v]", t.TMin, t.TMax)
		}
		if t.ExchangeEvery < 0 {
			return nil, specErrorf("negative tempering exchange_every %d", t.ExchangeEvery)
		}
	}

	// baseCfg is runCfg with the runtime knobs reset to defaults: the
	// cached solver is built from it, so jobs differing only at runtime
	// share the preprocessing work. A value copy is safe here — the only
	// reference-typed fields a fresh buildConfig result carries are the
	// TargetEnergy pointer (reset below) and the Engine func (shared by
	// design).
	baseCfg := runCfg
	def := core.DefaultConfig()
	baseCfg.Phi = def.Phi
	baseCfg.PhiEnd = def.PhiEnd
	baseCfg.LocalIters = def.LocalIters
	baseCfg.GlobalIters = def.GlobalIters
	baseCfg.TileFraction = def.TileFraction
	baseCfg.SpinUpdate = def.SpinUpdate
	baseCfg.EvalEvery = def.EvalEvery
	baseCfg.TargetEnergy = nil
	baseCfg.ExactRecompute = false
	baseCfg.Workers = 0
	if baseCfg.TransformRank == 0 {
		// Preprocessing ignores the seed without the Lanczos path; pin
		// it so equal problems hash to equal cache keys.
		baseCfg.Seed = 0
	}

	if !c.Model.HasDense() && !baseCfg.SkipTransform {
		// The compiler builds large lowered models CSR-only; reject at
		// admission with the fix spelled out rather than failing the job
		// at execution time.
		return nil, specErrorf("problem lowers to %d variables and is sparse-built; set config.skip_transform", c.Model.N())
	}
	if init, ok := prob.(problem.Initializer); ok {
		if s0 := init.InitialSpins(); s0 != nil {
			// Probe starts are a runtime knob (core reseeds per run), so
			// they ride runCfg only — the cached solver stays shareable
			// with probe-free jobs on the same model.
			runCfg.InitialSpins = s0
		}
	}

	j := &job{
		spec:    spec,
		prob:    prob,
		offset:  c.Offset,
		model:   c.Model,
		baseCfg: baseCfg,
		runCfg:  runCfg,
		seeds:   seeds,
		key: solverKey{
			problem:       hashModel(c.Model),
			tileSize:      baseCfg.TileSize,
			alpha:         baseCfg.Alpha,
			skipTransform: baseCfg.SkipTransform,
			transformRank: baseCfg.TransformRank,
			rankSeed:      baseCfg.Seed,
			device:        baseCfg.Engine != nil,
		},
		batchOpts: core.BatchOptions{
			EarlyStop: spec.EarlyStop,
		},
	}
	if t := spec.Tempering; t != nil {
		j.batchOpts.Tempering = &core.TemperingOptions{
			TMin:          t.TMin,
			TMax:          t.TMax,
			ExchangeEvery: t.ExchangeEvery,
		}
	}
	if spec.Config.BatchWorkers != nil {
		j.batchOpts.Workers = *spec.Config.BatchWorkers
	}
	if spec.Config.Workers != nil {
		j.batchOpts.JobWorkers = *spec.Config.Workers
	}
	if j.batchOpts.Workers < 0 || j.batchOpts.JobWorkers < 0 {
		return nil, specErrorf("negative worker counts")
	}
	j.timeout = m.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		j.timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	return j, nil
}

// loadProblem resolves the submission's one problem source into a
// compiler front end: a typed spec, or a max-cut graph given as inline
// GSET text, a file under the configured problem directory, or a named
// preset. Graph sources are held to the spec graph budget.
func (m *Manager) loadProblem(spec JobSpec) (problem.Problem, error) {
	sources := 0
	for _, set := range []bool{spec.Graph != "", spec.GraphFile != "", spec.Preset != "", len(spec.Problem) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, specErrorf("need exactly one of graph, graph_file, preset, problem (got %d)", sources)
	}
	switch {
	case len(spec.Problem) > 0:
		return problem.ParseSpec(spec.Problem)
	case spec.Graph != "":
		return problem.ReadMaxCut(strings.NewReader(spec.Graph), "graph")
	case spec.Preset != "":
		g, err := graph.Preset(spec.Preset)
		if err != nil {
			return nil, specErrorf("%v", err)
		}
		return &problem.MaxCut{G: g}, nil
	default:
		if m.cfg.ProblemDir == "" {
			return nil, specErrorf("graph_file submissions are disabled (server has no problem directory)")
		}
		if !filepath.IsLocal(spec.GraphFile) {
			return nil, specErrorf("graph_file %q must be a relative path inside the problem directory", spec.GraphFile)
		}
		f, err := os.Open(filepath.Join(m.cfg.ProblemDir, spec.GraphFile))
		if err != nil {
			return nil, specErrorf("graph_file: %v", err)
		}
		// Read path: a close error cannot corrupt anything already parsed.
		defer func() { _ = f.Close() }()
		return problem.ReadMaxCut(f, "graph_file")
	}
}

// buildConfig folds the overrides onto core.DefaultConfig and validates
// the result, so a bad config is rejected at admission, not after
// queueing.
func buildConfig(o ConfigOverrides, seed int64) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	if o.TileSize != nil {
		cfg.TileSize = *o.TileSize
	}
	if o.LocalIters != nil {
		cfg.LocalIters = *o.LocalIters
	}
	if o.GlobalIters != nil {
		cfg.GlobalIters = *o.GlobalIters
	}
	if o.TileFraction != nil {
		cfg.TileFraction = *o.TileFraction
	}
	if o.Phi != nil {
		cfg.Phi = *o.Phi
	}
	if o.PhiEnd != nil {
		cfg.PhiEnd = *o.PhiEnd
	}
	if o.Alpha != nil {
		cfg.Alpha = *o.Alpha
	}
	if o.SkipTransform != nil {
		cfg.SkipTransform = *o.SkipTransform
	}
	if o.TransformRank != nil {
		cfg.TransformRank = *o.TransformRank
	}
	if o.TargetEnergy != nil {
		t := *o.TargetEnergy
		cfg.TargetEnergy = &t
	}
	if o.EvalEvery != nil {
		cfg.EvalEvery = *o.EvalEvery
	}
	if o.ExactRecompute != nil {
		cfg.ExactRecompute = *o.ExactRecompute
	}
	if o.Workers != nil {
		cfg.Workers = *o.Workers
	}
	if o.SpinUpdate != nil {
		switch *o.SpinUpdate {
		case "", "stochastic":
			cfg.SpinUpdate = core.SpinUpdateStochastic
		case "majority":
			cfg.SpinUpdate = core.SpinUpdateMajority
		default:
			return cfg, specErrorf("unknown spin_update %q (want majority or stochastic)", *o.SpinUpdate)
		}
	}
	if o.Device != nil && *o.Device {
		cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
			return opcm.NewEngine(tiles, 0, opcm.DefaultParams())
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, specErrorf("config: %v", err)
	}
	return cfg, nil
}

// hashModel returns the hex sha256 of the lowered Ising model's
// canonical form: order, upper-triangle couplings in CSR scan order
// (row-major, deduplicated, sorted), and the field when present.
// Distinct specs lowering to the same Hamiltonian hash equal and share
// one cached solver.
func hashModel(m *ising.Model) string {
	h := sha256.New()
	writeU64 := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	writeF64 := func(v float64) { writeU64(math.Float64bits(v)) }
	writeU64(uint64(m.N()))
	cs, err := m.Sparse()
	if err == nil {
		cs.Scan(func(i, j int, v float64) {
			if i > j {
				return // symmetric storage: hash each pair once
			}
			writeU64(uint64(i))
			writeU64(uint64(j))
			writeF64(v)
		})
	}
	if hf := m.Field(); hf != nil {
		writeHashMarker(h)
		for _, v := range hf {
			writeF64(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeHashMarker separates the hash's coupling and field sections so
// a field-free model can never collide with a fielded one.
func writeHashMarker(h hash.Hash) { _, _ = h.Write([]byte{0xff, 'h'}) }
