// Command sophie solves a max-cut instance — or any problem-spec the
// QUBO/Ising compiler front end accepts — with the SOPHIE modified
// PRIS algorithm (functional simulation) and reports the decoded domain
// objective (the cut weight for max-cut), energy, iteration counts, and
// operation tallies.
//
// Usage:
//
//	sophie -graph g22.txt -phi 0.1 -alpha 0 -global 500
//	sophie -preset K100 -runs 5 -device
//	rudy -preset G1 | sophie -phi 0.2
//	sophie -problem spec.json -global 200
//	rudy -type ksat -n 50 -m 150 | sophie -problem -
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/metrics"
	"sophie/internal/opcm"
	"sophie/internal/problem"
	"sophie/internal/tiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sophie:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("sophie", flag.ContinueOnError)
	var (
		graphFile = fs.String("graph", "", "GSET-format graph file ('-' or empty reads stdin)")
		preset    = fs.String("preset", "", "named instance: G1 | G22 | K100")
		probFile  = fs.String("problem", "", "problem-spec JSON file ('-' reads stdin); see README \"Problem types\"")
		tile      = fs.Int("tile", 64, "tile size (OPCM array order)")
		local     = fs.Int("local", 10, "local iterations per global iteration")
		global    = fs.Int("global", 500, "global iterations")
		frac      = fs.Float64("tiles", 1.0, "fraction of tile pairs selected per global iteration")
		phi       = fs.Float64("phi", 0.1, "noise standard deviation")
		alpha     = fs.Float64("alpha", 0, "eigenvalue dropout factor")
		phiEnd    = fs.Float64("phi-end", 0, "anneal noise geometrically down to this value (0 = constant)")
		rank      = fs.Int("rank", 0, "rank-limited Lanczos transform (0 = full eigendecomposition)")
		skip      = fs.Bool("skip-transform", false, "use C = K without eigen preprocessing")
		majority  = fs.Bool("majority", false, "majority spin update instead of stochastic")
		device    = fs.Bool("device", false, "run MVMs through the OPCM device model")
		runs      = fs.Int("runs", 1, "independent jobs run sequentially (seeds seed, seed+1, ...)")
		replicas  = fs.Int("replicas", 0, "batched replica runtime: run this many replicas concurrently (0 = sequential -runs mode)")
		batchW    = fs.Int("batch-workers", 0, "concurrent replicas in -replicas mode (0 = GOMAXPROCS)")
		target    = fs.Float64("target", 0, "stop a job once its best energy reaches this value (0 = disabled)")
		portfolio = fs.Bool("portfolio", false, "with -replicas and -target: first replica reaching the target cancels the rest")
		tempering = fs.Bool("tempering", false, "with -replicas: couple the replicas into a parallel-tempering ladder (replica 0 coldest)")
		tmin      = fs.Float64("tmin", 0.05, "coldest tempering noise level (with -tempering)")
		tmax      = fs.Float64("tmax", 0.5, "hottest tempering noise level (with -tempering)")
		exchEvery = fs.Int("exchange-every", 1, "tempering exchange period in global iterations (with -tempering)")
		seed      = fs.Int64("seed", 1, "base seed")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		showOps   = fs.Bool("ops", false, "print operation counters")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget for the whole solve (0 = unbounded); expiry stops runs at their next global-iteration boundary with best-so-far results")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prob, model, err := loadProblem(*probFile, *graphFile, *preset, stdin, stdout)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.TileSize = *tile
	cfg.LocalIters = *local
	cfg.GlobalIters = *global
	cfg.TileFraction = *frac
	cfg.Phi = *phi
	cfg.Alpha = *alpha
	cfg.PhiEnd = *phiEnd
	cfg.TransformRank = *rank
	cfg.SkipTransform = *skip
	cfg.Workers = *workers
	if *majority {
		cfg.SpinUpdate = core.SpinUpdateMajority
	}
	if *device {
		cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
			return opcm.NewEngine(tiles, 0, opcm.DefaultParams())
		}
	}
	if *target != 0 {
		cfg.TargetEnergy = target
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas must be >= 0, got %d", *replicas)
	}
	if *portfolio && (*replicas <= 0 || *target == 0) {
		return fmt.Errorf("-portfolio requires -replicas and -target")
	}
	if *tempering && *replicas < 2 {
		return fmt.Errorf("-tempering requires -replicas >= 2 (one per ladder rung)")
	}
	if *tempering && *portfolio {
		return fmt.Errorf("-tempering and -portfolio cannot combine (a -target alone stops the whole ladder)")
	}

	if !model.HasDense() && !*skip {
		return fmt.Errorf("problem lowers to %d variables and is sparse-built; pass -skip-transform", model.N())
	}
	if init, ok := prob.(problem.Initializer); ok {
		if s0 := init.InitialSpins(); s0 != nil {
			cfg.InitialSpins = s0
		}
	}
	objectiveOf := func(spins []int8) float64 {
		sol, err := prob.Decode(spins)
		if err != nil {
			return math.NaN()
		}
		return sol.Objective
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	solver, err := core.NewSolver(model, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "preprocessing: %v (tile %d, %d pairs)\n",
		time.Since(start).Round(time.Millisecond), *tile, solver.Grid().PairCount())

	if *replicas > 0 {
		batchStart := time.Now()
		seeds, err := core.SeedRange(*seed, *replicas)
		if err != nil {
			return err
		}
		batchOpts := core.BatchOptions{
			Workers:   *batchW,
			EarlyStop: *portfolio,
		}
		if *tempering {
			batchOpts.Tempering = &core.TemperingOptions{TMin: *tmin, TMax: *tmax, ExchangeEvery: *exchEvery}
		}
		batch, err := solver.RunBatchCtx(ctx, seeds, batchOpts)
		if err != nil {
			return err
		}
		wall := time.Since(batchStart)
		timedOut := ctx.Err() != nil
		for j, res := range batch.Results {
			status := ""
			switch {
			case res.ReachedTarget:
				status = " (reached target)"
			case res.Stopped && timedOut:
				status = " (stopped by timeout)"
			case res.Stopped:
				status = " (cancelled by portfolio stop)"
			}
			label := "replica"
			rung := ""
			if ts := batch.Tempering; ts != nil {
				label = "rung"
				rung = fmt.Sprintf(" (phi %.3f)", ts.Phis[j])
			}
			fmt.Fprintf(stdout, "%s %d%s: objective %.0f, energy %.0f, best at global iter %d%s\n",
				label, j, rung, objectiveOf(res.BestSpins), res.BestEnergy, res.BestGlobalIter, status)
		}
		if ts := batch.Tempering; ts != nil {
			fmt.Fprintf(stdout, "tempering: %d/%d exchanges accepted (rate %.2f) on ladder [%.3f, %.3f]\n",
				ts.Accepted, ts.Attempted, ts.ExchangeRate, *tmin, *tmax)
		}
		fmt.Fprintf(stdout, "batch: best objective %.0f (replica %d), energy best %.0f / median %.0f / mean %.1f, wall %v\n",
			objectiveOf(batch.Best().BestSpins), batch.BestIndex,
			batch.BestEnergy, batch.MedianEnergy, batch.MeanEnergy,
			wall.Round(time.Millisecond))
		if cfg.TargetEnergy != nil {
			fmt.Fprintf(stdout, "batch: %d/%d replicas reached the target (success probability %.2f)\n",
				batch.Succeeded, *replicas, batch.SuccessProb)
		}
		if timedOut {
			fmt.Fprintf(stdout, "batch: timeout %v expired — %d/%d replicas stopped early with best-so-far results\n",
				*timeout, batch.Stopped, *replicas)
		}
		if *showOps {
			fmt.Fprintf(stdout, "operation counts (all replicas):\n%s", batch.Ops.String())
		}
		printSolution(stdout, prob, batch.Best().BestSpins)
		return nil
	}

	// Track the best run by energy: lower energy is always the better
	// Hamiltonian state regardless of whether the domain objective is
	// min-better (TSP) or max-better (cut, MAX-SAT).
	bestEnergy := math.Inf(1)
	var bestSpins []int8
	ran := 0
	var totalOps metrics.OpCounts
	for r := 0; r < *runs; r++ {
		jobStart := time.Now()
		res, err := solver.RunCtx(ctx, *seed+int64(r))
		if err != nil {
			return err
		}
		if res.BestEnergy < bestEnergy {
			bestEnergy = res.BestEnergy
			bestSpins = res.BestSpins
		}
		totalOps.Add(res.Ops)
		ran++
		status := ""
		if res.Stopped {
			status = " (stopped by timeout)"
		}
		fmt.Fprintf(stdout, "job %d: objective %.0f, energy %.0f, best at global iter %d, wall %v%s\n",
			r, objectiveOf(res.BestSpins), res.BestEnergy, res.BestGlobalIter, time.Since(jobStart).Round(time.Millisecond), status)
		if res.Stopped {
			// The budget covers the whole solve; later jobs would start
			// already expired and report nothing useful.
			fmt.Fprintf(stdout, "timeout %v expired: skipping %d remaining job(s)\n", *timeout, *runs-ran)
			break
		}
	}
	best := 0.0
	if bestSpins != nil {
		best = objectiveOf(bestSpins)
	}
	fmt.Fprintf(stdout, "best objective over %d job(s): %.0f\n", ran, best)
	if *showOps {
		fmt.Fprintf(stdout, "operation counts (all jobs):\n%s", totalOps.String())
	}
	printSolution(stdout, prob, bestSpins)
	return nil
}

// loadProblem reads the one problem source — a problem-spec JSON
// document (-problem), or a max-cut graph from a GSET file or stdin
// (-graph) or a preset — compiles it, and prints the lowering summary.
func loadProblem(specFile, graphFile, preset string, stdin io.Reader, stdout io.Writer) (problem.Problem, *ising.Model, error) {
	if specFile != "" && (graphFile != "" || preset != "") {
		return nil, nil, fmt.Errorf("-problem cannot combine with -graph or -preset")
	}
	p, err := readProblem(specFile, graphFile, preset, stdin)
	if err != nil {
		return nil, nil, err
	}
	c, err := problem.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	field := ""
	if c.Model.HasField() {
		field = ", with field"
	}
	fmt.Fprintf(stdout, "problem: %s, lowered to %d spins%s (energy offset %g)\n",
		p.Type(), c.Model.N(), field, c.Offset)
	return p, c.Model, nil
}

func readProblem(specFile, graphFile, preset string, stdin io.Reader) (problem.Problem, error) {
	if specFile != "" {
		var data []byte
		var err error
		if specFile == "-" {
			data, err = io.ReadAll(stdin)
		} else {
			data, err = os.ReadFile(specFile)
		}
		if err != nil {
			return nil, err
		}
		return problem.ParseSpec(data)
	}
	if preset != "" {
		g, err := graph.Preset(preset)
		if err != nil {
			return nil, err
		}
		return &problem.MaxCut{G: g}, nil
	}
	if graphFile == "" || graphFile == "-" {
		return problem.ReadMaxCut(stdin, "graph")
	}
	f, err := os.Open(graphFile)
	if err != nil {
		return nil, err
	}
	// Read path: a close error cannot corrupt anything already parsed.
	defer func() { _ = f.Close() }()
	return problem.ReadMaxCut(f, "graph")
}

// printSolution reports the decoded domain answer of the best spins.
func printSolution(stdout io.Writer, prob problem.Problem, spins []int8) {
	if spins == nil {
		return
	}
	sol, err := prob.Decode(spins)
	if err != nil {
		fmt.Fprintf(stdout, "solution: decode failed: %v\n", err)
		return
	}
	feas := "feasible"
	if !sol.Feasible {
		feas = "INFEASIBLE"
	}
	fmt.Fprintf(stdout, "solution: objective %g, %s\n", sol.Objective, feas)
	for _, v := range sol.Violations {
		fmt.Fprintf(stdout, "  violation: %s\n", v)
	}
	if data, err := json.Marshal(sol.Assignment); err == nil {
		fmt.Fprintf(stdout, "  assignment: %s\n", data)
	}
}
