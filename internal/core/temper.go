package core

import (
	"context"
	"fmt"
	"math"
)

// Tempering portfolio runtime (DESIGN.md "Tempering portfolio runtime").
//
// Parallel tempering couples the batched replicas instead of running
// them independently: replica r anneals at a fixed noise level phi_r
// drawn from a geometric ladder, and at exchange boundaries adjacent
// rungs swap spin configurations with the Metropolis acceptance rule,
// treating phi as the effective temperature. Hot rungs explore, the
// cold rung exploits, and a good configuration found anywhere on the
// ladder percolates down. The runtime reuses everything the batch
// runtime already amortizes — one preprocessed solver, one programmed
// engine, per-rung sessions — and adds reuse-aware scheduling: all
// rungs advance through the same global iteration in lockstep over one
// shared PE pool, dispatched pair-major, so every rung's local batch
// for tile pair p runs while p's tiles are hot in cache.
//
// Determinism contract: rung trajectories are pure functions of their
// seeds (controller/pair/device streams, as in RunBatch), controller
// phases run rung-sequentially, and exchange decisions draw from the
// stateless (seeds[0], roleExchange) stream keyed by (iteration, rung)
// — so the full portfolio, exchanges included, is bit-identical at any
// Workers value.

// TemperingOptions configures the parallel-tempering portfolio
// (BatchOptions.Tempering / Solver.RunTempering).
type TemperingOptions struct {
	// TMin and TMax bound the geometric noise-level ladder: rung r of R
	// runs at phi_r = TMin·(TMax/TMin)^(r/(R-1)), so rung 0 is the
	// coldest. Both override the solver's Phi/PhiEnd schedule (each rung
	// holds its ladder level constant). Requires 0 < TMin < TMax.
	TMin, TMax float64
	// ExchangeEvery is the exchange period in global iterations:
	// adjacent-rung swaps are attempted at the boundary of every
	// ExchangeEvery-th iteration (except the last). 0 means 1.
	ExchangeEvery int
}

// TemperingStats reports the ladder and exchange behavior of one
// tempering run (BatchResult.Tempering).
type TemperingStats struct {
	// Phis is the noise-level ladder, coldest first; Phis[r] is the
	// constant phi replica r ran at.
	Phis []float64
	// RungEnergies is each rung's final best energy, in ladder order
	// (RungEnergies[r] == Results[r].BestEnergy).
	RungEnergies []float64
	// Attempted and Accepted count adjacent-rung exchange attempts and
	// accepted swaps; ExchangeRate is their ratio (0 when no boundary
	// was reached).
	Attempted    int
	Accepted     int
	ExchangeRate float64
}

func (t *TemperingOptions) exchangeEvery() int {
	if t.ExchangeEvery == 0 {
		return 1
	}
	return t.ExchangeEvery
}

// exchangeUniform is the stateless acceptance draw of the exchange
// attempt between rung and rung+1 at iteration iter: two splitmix64
// mixes separate the portfolio stream from the (iteration, rung) pair,
// exactly the coloredNormal construction. No RNG state exists, so
// exchange outcomes cannot depend on scheduling.
func exchangeUniform(stream uint64, iter, rung int) float64 {
	z := splitmix64(splitmix64(stream^uint64(iter)) ^ uint64(rung))
	return float64(z>>11) / (1 << 53)
}

// RunTempering executes one parallel-tempering portfolio: len(seeds)
// replicas on a geometric noise ladder, exchanging configurations at
// global-iteration boundaries. Results[r] is rung r's result (coldest
// first) and BatchResult.Tempering carries the ladder and exchange
// statistics. Output is bit-identical at any worker count.
func (s *Solver) RunTempering(seeds []int64, topts TemperingOptions) (*BatchResult, error) {
	return s.RunBatch(seeds, BatchOptions{Tempering: &topts})
}

// RunTemperingCtx is RunTempering under caller-controlled cancellation,
// observed at global-iteration boundaries like RunBatchCtx.
func (s *Solver) RunTemperingCtx(ctx context.Context, seeds []int64, topts TemperingOptions) (*BatchResult, error) {
	return s.RunBatchCtx(ctx, seeds, BatchOptions{Tempering: &topts})
}

// runTemperingCtx is the tempering driver behind RunBatchCtx. seeds[r]
// seeds rung r; opts.Tempering is non-nil.
func (s *Solver) runTemperingCtx(ctx context.Context, seeds []int64, opts BatchOptions) (*BatchResult, error) {
	topts := opts.Tempering
	rungs := len(seeds)
	if rungs < 2 {
		return nil, fmt.Errorf("core: tempering needs at least 2 rungs, got %d seeds", rungs)
	}
	if !(topts.TMin > 0) || !(topts.TMax > topts.TMin) {
		return nil, fmt.Errorf("core: tempering ladder needs 0 < TMin < TMax, got [%g, %g]", topts.TMin, topts.TMax)
	}
	if topts.ExchangeEvery < 0 {
		return nil, fmt.Errorf("core: negative exchange period %d", topts.ExchangeEvery)
	}
	if opts.EarlyStop {
		return nil, fmt.Errorf("core: tempering and EarlyStop cannot combine (the ladder already couples the replicas; set Config.TargetEnergy alone to stop the whole portfolio)")
	}

	// Geometric ladder, coldest first. Each rung's solver view pins the
	// rung's phi as a constant schedule; everything preprocessed —
	// transform, tiles, programmed engine — is shared untouched.
	// Per-rung Config.Workers is irrelevant (rungs own no pool), as is
	// opts.JobWorkers: the portfolio runs one shared pool.
	phis := make([]float64, rungs)
	ratio := math.Pow(topts.TMax/topts.TMin, 1/float64(rungs-1))
	phis[0] = topts.TMin
	for r := 1; r < rungs; r++ {
		phis[r] = phis[r-1] * ratio
	}
	jobs := make([]*jobRun, 0, rungs)
	finishAll := func() {
		for _, j := range jobs {
			j.finish()
		}
	}
	for r := 0; r < rungs; r++ {
		phi := phis[r]
		runner, err := s.WithRuntime(func(c *Config) { c.Phi = phi; c.PhiEnd = 0 })
		if err != nil {
			finishAll()
			return nil, err
		}
		j, err := newJobRun(runner.newRunContext(ctx, seeds[r], nil), seeds[r])
		if err != nil {
			finishAll()
			return nil, err
		}
		jobs = append(jobs, j)
	}

	// One shared PE pool for the whole ladder, stepped in lockstep with
	// the exchange boundary as the driver's hook.
	workers := opts.Workers
	if workers == 0 {
		workers = s.cfg.workers()
	}
	stream := uint64(seedStream(seeds[0], roleExchange, 0))
	exchangeEvery := topts.exchangeEvery()
	stats := &TemperingStats{Phis: phis}
	curr := make([]float64, rungs)
	iters := s.cfg.GlobalIters

	// exchange re-anchors every rung's energy exactly on its current
	// reconciled state, then sweeps the ladder bottom-up with the
	// Metropolis rule on the stateless exchange stream. phi plays the
	// role of temperature: dBeta > 0 for every adjacent pair, so a
	// hotter rung holding the lower energy always swaps down.
	exchange := func(g int) bool {
		if g%exchangeEvery != 0 || g >= iters {
			return false
		}
		for r, j := range jobs {
			e := j.currentEnergy()
			j.observeEnergy(g, e)
			curr[r] = e
		}
		for r := 0; r+1 < rungs; r++ {
			stats.Attempted++
			dBeta := 1/phis[r] - 1/phis[r+1]
			dE := curr[r] - curr[r+1]
			ok := dBeta*dE >= 0 || exchangeUniform(stream, g, r) < math.Exp(dBeta*dE)
			if ok {
				jobs[r].swapStateWith(jobs[r+1])
				curr[r], curr[r+1] = curr[r+1], curr[r]
				stats.Accepted++
			}
			jobs[r].run.Exchange(g, r, ok, dE)
		}
		// An exchange-boundary evaluation can reach the target between
		// endIter's eval points; check deterministically here so the
		// portfolio stops the same way at any worker count.
		reached := false
		if tgt := s.cfg.TargetEnergy; tgt != nil {
			for _, j := range jobs {
				if j.res.BestEnergy <= *tgt {
					j.res.ReachedTarget = true
					reached = true
				}
			}
		}
		return reached
	}
	lockstep(jobs, workers, exchange)

	results := make([]*Result, rungs)
	for r, j := range jobs {
		results[r] = &j.res
	}
	b := aggregate(results)
	stats.RungEnergies = make([]float64, rungs)
	for r, res := range results {
		stats.RungEnergies[r] = res.BestEnergy
	}
	if stats.Attempted > 0 {
		stats.ExchangeRate = float64(stats.Accepted) / float64(stats.Attempted)
	}
	b.Tempering = stats
	b.JobWorkers = workers
	return b, nil
}
