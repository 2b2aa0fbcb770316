// Package sophie is a from-scratch reproduction of SOPHIE, the Scalable
// Optical PHase-change memory Ising Engine (Yang et al., MICRO 2024): a
// computation-based recurrent Ising machine that decomposes the PRIS
// recurrence into symmetric tile pairs mapped onto bi-directional OPCM
// crossbar arrays, and scales past the hardware capacity through
// symmetric local updates and stochastic global iterations.
//
// The package is a facade over the full implementation:
//
//   - graphs and benchmark instances (internal/graph)
//   - the Ising model (internal/ising) and the problem compiler that
//     lowers QUBO, MAX-SAT, coloring, TSP, vertex cover and other
//     problems onto it (internal/problem)
//   - the reference PRIS algorithm (internal/pris)
//   - the SOPHIE modified algorithm (internal/core)
//   - the OPCM device model (internal/opcm)
//   - scheduling and the PPA/EDAP architecture model (internal/sched,
//     internal/arch)
//   - baseline solvers: SA, simulated bifurcation, BRIM, BLS
//     (internal/baseline)
//
// Quickstart:
//
//	g := sophie.KGraph(100)
//	res, err := sophie.Solve(sophie.MaxCut(g), sophie.DefaultConfig())
//	if err != nil { ... }
//	fmt.Println("cut:", g.CutValue(res.BestSpins))
package sophie

import (
	"fmt"
	"io"

	"sophie/internal/arch"
	"sophie/internal/baseline"
	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/metrics"
	"sophie/internal/opcm"
	"sophie/internal/pris"
	"sophie/internal/problem"
	"sophie/internal/sched"
	"sophie/internal/tiling"
)

// ---- Graphs and benchmark instances --------------------------------

// Graph is a weighted undirected graph over nodes 0..N-1.
type Graph = graph.Graph

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// WeightScheme selects how generated edge weights are drawn.
type WeightScheme = graph.WeightScheme

// Weight schemes for the graph generators.
const (
	WeightUnit    = graph.WeightUnit
	WeightPM1     = graph.WeightPM1
	WeightUniform = graph.WeightUniform
)

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// RandomGraph generates a Rudy-style sparse random graph with exactly m
// edges.
func RandomGraph(n, m int, scheme WeightScheme, seed int64) (*Graph, error) {
	return graph.Random(n, m, scheme, seed)
}

// RandomRegularGraph generates a uniform random d-regular graph via the
// configuration model — the sparse scaling workload family (every node
// has exactly degree d, so a million-spin instance stores only n·d/2
// edges). n·d must be even and d < n.
func RandomRegularGraph(n, d int, scheme WeightScheme, seed int64) (*Graph, error) {
	return graph.RandomRegular(n, d, scheme, seed)
}

// CompleteGraph generates the complete graph K_n with random weights.
func CompleteGraph(n int, scheme WeightScheme, seed int64) *Graph {
	return graph.Complete(n, scheme, seed)
}

// G1 returns the synthetic stand-in for GSET G1 (800 nodes, 19176
// unit-weight edges). See DESIGN.md for the substitution rationale.
func G1() *Graph { return graph.G1Standin() }

// G22 returns the synthetic stand-in for GSET G22 (2000 nodes, 19990
// unit-weight edges).
func G22() *Graph { return graph.G22Standin() }

// KGraph returns the complete graph on n nodes with ±1 random weights
// (the paper's K100/K16384/K32768 workload family).
func KGraph(n int) *Graph { return graph.KGraph(n) }

// ReadGraph parses a graph in GSET text format ("n m" header, then
// "u v w" lines, 1-indexed).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes a graph in GSET text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// ---- Matrices ---------------------------------------------------------

// Matrix is a dense row-major float64 matrix (the coupling carrier).
type Matrix = linalg.Matrix

// NewMatrix returns a zeroed rows × cols matrix.
func NewMatrix(rows, cols int) *Matrix { return linalg.NewMatrix(rows, cols) }

// NewMatrixFrom builds a matrix from row-major data.
func NewMatrixFrom(rows, cols int, data []float64) (*Matrix, error) {
	return linalg.NewMatrixFrom(rows, cols, data)
}

// ---- Ising models ---------------------------------------------------

// Model is an Ising model H = -½ Σ σᵢKᵢⱼσⱼ over ±1 spins.
type Model = ising.Model

// MaxCut builds the Ising model whose ground state solves max-cut on g.
func MaxCut(g *Graph) *Model { return ising.FromMaxCut(g) }

// MaxCutSparse builds the max-cut Ising model directly in CSR form,
// never materializing the dense n×n coupling matrix — the entry point
// for million-spin instances. Sparse-built models require
// Config.SkipTransform and the default engine; the solver runs them on
// the CSR datapath, bit-identical to the dense path wherever both can
// run (DESIGN.md "Sparse datapath").
func MaxCutSparse(g *Graph) *Model { return ising.FromMaxCutCSR(g) }

// NewModel wraps a symmetric coupling matrix as an Ising model.
func NewModel(k *linalg.Matrix) (*Model, error) { return ising.NewModel(k) }

// ---- Problem compiler ----------------------------------------------

// Problem front ends (internal/problem): each lowers onto one Ising
// model with a native external field and decodes solver spins back to
// a domain solution with a feasibility report (README "Problem
// types"). ParseSpec reaches every spec type.
type (
	Problem  = problem.Problem
	Compiled = problem.Compiled
	Solution = problem.Solution

	QUBO            = problem.QUBO
	QUBOEntry       = problem.QUBOEntry
	Coloring        = problem.Coloring
	NumberPartition = problem.NumberPartition
	TSP             = problem.TSP
	VertexCover     = problem.VertexCover
	IndependentSet  = problem.IndependentSet

	BitsSolution            = problem.BitsSolution
	ColoringSolution        = problem.ColoringSolution
	NumberPartitionSolution = problem.NumberPartitionSolution
	TourSolution            = problem.TourSolution
	VertexSetSolution       = problem.VertexSetSolution
)

var (
	// Compile lowers a problem and compiles it into an Ising model plus
	// the offset relating model energies to domain objectives.
	Compile = problem.Compile
	// ParseSpec decodes a JSON problem spec (the "type"-tagged union
	// that sophied and cmd/sophie accept) into a front end.
	ParseSpec = problem.ParseSpec
)

// ---- SOPHIE solver --------------------------------------------------

// Config controls a SOPHIE solve (tile size, local/global iterations,
// stochastic tile fraction, noise φ, dropout α, spin update mode, ...).
type Config = core.Config

// Result reports a SOPHIE job (best spins/energy, iterations, op counts).
type Result = core.Result

// Solver holds preprocessed state and runs batched jobs.
type Solver = core.Solver

// SpinUpdate selects how global synchronization reconciles spin copies.
type SpinUpdate = core.SpinUpdate

// Spin reconciliation modes.
const (
	SpinUpdateMajority   = core.SpinUpdateMajority
	SpinUpdateStochastic = core.SpinUpdateStochastic
)

// BatchOptions controls the batched replica runtime (RunBatch
// scheduling: batch workers, per-job workers, portfolio early-stop).
type BatchOptions = core.BatchOptions

// BatchResult aggregates a RunBatch call (per-replica results, best /
// mean / median energy, success probability, summed op counts).
type BatchResult = core.BatchResult

// TemperingOptions selects the tempering portfolio runtime
// (Solver.RunTempering / BatchOptions.Tempering): a geometric phi
// ladder with replica exchanges at global-iteration boundaries.
type TemperingOptions = core.TemperingOptions

// TemperingStats reports a tempering run's ladder and exchange
// statistics (BatchResult.Tempering).
type TemperingStats = core.TemperingStats

// SeedRange returns n consecutive replica seeds starting at base, or an
// error when the range would overflow int64 (wrapped seeds would
// duplicate replica streams).
func SeedRange(base int64, n int) ([]int64, error) { return core.SeedRange(base, n) }

// DefaultConfig returns the paper's operating point (tile 64, 10 local
// iterations per global, 500 global iterations, stochastic spin update,
// φ=0.1, α=0).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewSolver preprocesses a model under a configuration.
func NewSolver(m *Model, cfg Config) (*Solver, error) { return core.NewSolver(m, cfg) }

// Solve builds a solver and runs a single job.
func Solve(m *Model, cfg Config) (*Result, error) { return core.Solve(m, cfg) }

// WithDeviceModel returns a copy of cfg whose tile MVMs run through the
// OPCM device model (quantized cells, optional read noise and faults)
// instead of the ideal float64 datapath.
func WithDeviceModel(cfg Config, params DeviceParams) Config {
	cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
		return opcm.NewEngine(tiles, 0, params)
	}
	return cfg
}

// WithDriftDeviceModel is WithDeviceModel plus the GST transmittance
// drift model: nu is the drift exponent, t0 the reference time in
// seconds. The returned engine ages only if driven through
// opcm.DriftEngine's Tick/Refresh API (type-assert Solver.Engine()).
func WithDriftDeviceModel(cfg Config, params DeviceParams, nu, t0 float64) Config {
	cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
		return opcm.NewDriftEngine(tiles, 0, params, nu, t0)
	}
	return cfg
}

// ---- Reference PRIS algorithm ---------------------------------------

// PRISConfig controls the reference (untiled) PRIS recurrence.
type PRISConfig = pris.Config

// PRISResult reports a PRIS run.
type PRISResult = pris.Result

// SolvePRIS runs the reference PRIS algorithm.
func SolvePRIS(m *Model, cfg PRISConfig) (*PRISResult, error) { return pris.Solve(m, cfg) }

// ---- Device and architecture models ----------------------------------

// DeviceParams configures the OPCM device model (cell bits, ADC bits,
// read noise, stuck-cell faults).
type DeviceParams = opcm.Params

// DefaultDeviceParams returns the paper's device configuration (6-bit
// cells, 8-bit sync ADC).
func DefaultDeviceParams() DeviceParams { return opcm.DefaultParams() }

// Hardware describes an accelerator pool (accelerators × chiplets × PEs
// × tile size).
type Hardware = sched.Hardware

// DefaultHardware returns one accelerator in the paper's configuration
// (4 OPCM chiplets of 64 PEs, 64×64 tiles).
func DefaultHardware() Hardware { return sched.DefaultHardware() }

// ArchParams are the technology constants of the PPA model.
type ArchParams = arch.Params

// DefaultArchParams returns the Section IV-A constants.
func DefaultArchParams() ArchParams { return arch.DefaultParams() }

// Design pairs hardware with technology parameters.
type Design = arch.Design

// Workload describes a batched execution for the PPA model.
type Workload = arch.Workload

// PPAReport is the output of the PPA model: time, energy, area, EDAP.
type PPAReport = arch.Report

// EstimatePPA evaluates the analytic power/performance/area model for a
// workload on a design.
func EstimatePPA(d Design, w Workload) (*PPAReport, error) { return arch.Evaluate(d, w) }

// SolveAndEstimate couples the functional simulator with the
// architecture model the way the paper's evaluation does: it runs one
// SOPHIE job, then prices the executed iterations on the design with
// the given batch size (the hardware amortizes programming over the
// batch). The returned report reflects the measured GlobalItersRun —
// pass a TargetEnergy in cfg to get time-to-solution numbers.
func SolveAndEstimate(m *Model, cfg Config, d Design, batch int) (*Result, *PPAReport, error) {
	if d.Hardware.TileSize != cfg.TileSize {
		return nil, nil, fmt.Errorf("sophie: design tile size %d != solver tile size %d",
			d.Hardware.TileSize, cfg.TileSize)
	}
	res, err := core.Solve(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	iters := res.GlobalItersRun
	if iters < 1 {
		iters = 1
	}
	rep, err := arch.Evaluate(d, arch.Workload{
		Name:         "solve",
		Nodes:        m.N(),
		Batch:        batch,
		LocalIters:   cfg.LocalIters,
		GlobalIters:  iters,
		TileFraction: cfg.TileFraction,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// DefaultDesign returns one accelerator with default parameters.
func DefaultDesign() Design { return arch.DefaultDesign() }

// ---- Baseline solvers -------------------------------------------------

// Baseline solver configurations and entry points (Section IV-D
// comparators).
type (
	SAConfig   = baseline.SAConfig
	SBConfig   = baseline.SBConfig
	BRIMConfig = baseline.BRIMConfig
	BLSConfig  = baseline.BLSConfig
	PTConfig   = baseline.PTConfig
)

// SimulatedAnnealing runs Metropolis annealing on the model.
func SimulatedAnnealing(m *Model, cfg SAConfig) (*baseline.Result, error) {
	return baseline.SimulatedAnnealing(m, cfg)
}

// SimulatedBifurcation runs ballistic simulated bifurcation.
func SimulatedBifurcation(m *Model, cfg SBConfig) (*baseline.Result, error) {
	return baseline.SimulatedBifurcation(m, cfg)
}

// BRIM runs the bistable resistively-coupled Ising machine ODE.
func BRIM(m *Model, cfg BRIMConfig) (*baseline.Result, error) {
	return baseline.BRIM(m, cfg)
}

// BLS runs breakout-style local search for max-cut.
func BLS(g *Graph, cfg BLSConfig) (*baseline.BLSResult, error) {
	return baseline.BLS(g, cfg)
}

// ParallelTempering runs replica-exchange Metropolis.
func ParallelTempering(m *Model, cfg PTConfig) (*baseline.PTResult, error) {
	return baseline.ParallelTempering(m, cfg)
}

// DefaultSAConfig returns the simulated annealing defaults.
func DefaultSAConfig() SAConfig { return baseline.DefaultSAConfig() }

// DefaultSBConfig returns the simulated bifurcation defaults.
func DefaultSBConfig() SBConfig { return baseline.DefaultSBConfig() }

// DefaultBRIMConfig returns the BRIM ODE defaults.
func DefaultBRIMConfig() BRIMConfig { return baseline.DefaultBRIMConfig() }

// DefaultBLSConfig returns the breakout local search defaults.
func DefaultBLSConfig() BLSConfig { return baseline.DefaultBLSConfig() }

// DefaultPTConfig returns the parallel tempering defaults.
func DefaultPTConfig() PTConfig { return baseline.DefaultPTConfig() }

// TimeToSolution computes the standard TTS metric (T90 at confidence
// 0.9): expected wall time to reach the target at least once given a
// per-run success probability.
func TimeToSolution(runTime, successProb, confidence float64) (float64, error) {
	return metrics.TimeToSolution(runTime, successProb, confidence)
}
