// Command sweep runs a custom parameter sweep of the SOPHIE functional
// simulator over noise φ, dropout α, local iterations, and tile
// fraction, printing one CSV row per point — the generic driver behind
// the Fig. 6-8 style studies for arbitrary instances.
//
// Usage:
//
//	sweep -preset K100 -phi 0.05,0.1,0.2 -alpha 0,0.1 -runs 5
//	sweep -graph my.txt -local 1,5,10 -tiles 0.5,1.0 -global 200
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/metrics"
	"sophie/internal/problem"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		graphFile    = fs.String("graph", "", "GSET-format graph file ('-' or empty reads stdin)")
		preset       = fs.String("preset", "", "named instance: G1 | G22 | K100")
		tile         = fs.Int("tile", 64, "tile size")
		global       = fs.Int("global", 200, "global iterations")
		phiList      = fs.String("phi", "0.1", "comma-separated noise values")
		alphaList    = fs.String("alpha", "0", "comma-separated dropout values")
		localList    = fs.String("local", "10", "comma-separated local-iteration counts")
		fracList     = fs.String("tiles", "1.0", "comma-separated tile fractions")
		runs         = fs.Int("runs", 3, "replicas per point (run concurrently)")
		seed         = fs.Int64("seed", 1, "base seed")
		workers      = fs.Int("workers", 0, "per-replica solver workers passed to the batch runtime")
		batchWorkers = fs.Int("batch-workers", 0, "concurrent replicas per sweep point (0 = GOMAXPROCS)")
		tempering    = fs.Bool("tempering", false, "couple each point's replicas into a parallel-tempering ladder (the -tmin/-tmax ladder replaces the -phi value per rung; appends an exchange_rate CSV column)")
		tmin         = fs.Float64("tmin", 0.05, "coldest tempering noise level (with -tempering)")
		tmax         = fs.Float64("tmax", 0.5, "hottest tempering noise level (with -tempering)")
		exchEvery    = fs.Int("exchange-every", 1, "tempering exchange period in global iterations (with -tempering)")
		timeout      = fs.Duration("timeout", 0, "wall-clock budget for the whole sweep (0 = unbounded); on expiry the current point's partial row is printed and the sweep aborts with an error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := loadGraph(*graphFile, *preset, stdin)
	if err != nil {
		return err
	}
	c, err := problem.Compile(&problem.MaxCut{G: g})
	if err != nil {
		return err
	}
	model := c.Model

	phis, err := parseFloats(*phiList)
	if err != nil {
		return err
	}
	alphas, err := parseFloats(*alphaList)
	if err != nil {
		return err
	}
	locals, err := parseInts(*localList)
	if err != nil {
		return err
	}
	fracs, err := parseFloats(*fracList)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *tempering && *runs < 2 {
		return fmt.Errorf("-tempering requires -runs >= 2 (one replica per ladder rung)")
	}

	header := "alpha,phi,local_iters,tile_fraction,mean_cut,std_cut,min_cut,max_cut,runs,stopped"
	if *tempering {
		header += ",exchange_rate"
	}
	fmt.Fprintln(stdout, header)
	for _, alpha := range alphas {
		cfg := core.DefaultConfig()
		cfg.TileSize = *tile
		cfg.GlobalIters = *global
		cfg.Alpha = alpha
		cfg.Workers = *workers
		cfg.EvalEvery = 2
		solver, err := core.NewSolver(model, cfg)
		if err != nil {
			return err
		}
		for _, phi := range phis {
			for _, local := range locals {
				for _, frac := range fracs {
					tuned, err := solver.WithRuntime(func(c *core.Config) {
						c.Phi = phi
						c.LocalIters = local
						c.TileFraction = frac
					})
					if err != nil {
						return err
					}
					// The batched replica runtime runs the point's
					// replicas concurrently; per-replica results are
					// identical to sequential Run calls, so the CSV
					// is unchanged — only the wall clock shrinks. With
					// -tempering the replicas couple into a ladder
					// instead (the rung phis replace the point's phi).
					seeds, err := core.SeedRange(*seed, *runs)
					if err != nil {
						return err
					}
					batchOpts := core.BatchOptions{
						Workers:    *batchWorkers,
						JobWorkers: *workers,
					}
					if *tempering {
						batchOpts.Tempering = &core.TemperingOptions{TMin: *tmin, TMax: *tmax, ExchangeEvery: *exchEvery}
					}
					batch, err := tuned.RunBatchCtx(ctx, seeds, batchOpts)
					if err != nil {
						return err
					}
					cuts := make([]float64, 0, *runs)
					for _, res := range batch.Results {
						cuts = append(cuts, g.CutValue(res.BestSpins))
					}
					s := metrics.Summarize(cuts)
					row := fmt.Sprintf("%g,%g,%d,%g,%.2f,%.2f,%.0f,%.0f,%d,%d",
						alpha, phi, local, frac, s.Mean, s.Std, s.Min, s.Max, s.N, batch.Stopped)
					if ts := batch.Tempering; ts != nil {
						row += fmt.Sprintf(",%.3f", ts.ExchangeRate)
					}
					fmt.Fprintln(stdout, row)
					if ctx.Err() != nil {
						// A stopped row mixes full and truncated replicas;
						// the abort keeps a silently short sweep out of
						// downstream plots.
						return fmt.Errorf("timeout %v expired; sweep aborted after a partial point", *timeout)
					}
				}
			}
		}
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func loadGraph(file, preset string, stdin io.Reader) (*graph.Graph, error) {
	if preset != "" {
		return graph.Preset(preset)
	}
	if file == "" || file == "-" {
		return graph.Read(stdin)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	// Read path: a close error cannot corrupt anything already parsed.
	defer func() { _ = f.Close() }()
	return graph.Read(f)
}
