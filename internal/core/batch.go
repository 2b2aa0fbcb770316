package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sophie/internal/metrics"
)

// Batched replica runtime (DESIGN.md "Batched replica runtime").
//
// SOPHIE amortizes the O(n³) preprocessing and the OPCM programming cost
// by pipelining many independent jobs over one programmed array set.
// RunBatch is the functional-simulation counterpart: B replicas of the
// same problem, each a pure function of its own seed, scheduled
// concurrently over the shared preprocessed solver. Job-scoped engine
// state (device noise streams) is split off per replica through
// tiling.SessionEngine, so results are bit-identical to running each
// seed alone no matter how the scheduler interleaves the replicas.

// batchStop is the cooperative cancellation flag shared by the replicas
// of one batch. A winning replica (one whose best energy reaches
// TargetEnergy) raises it; siblings poll it at global-iteration
// boundaries and return early with Result.Stopped set.
type batchStop struct {
	flag atomic.Bool
}

func (b *batchStop) raise()        { b.flag.Store(true) }
func (b *batchStop) stopped() bool { return b.flag.Load() }

// BatchOptions controls RunBatch scheduling.
type BatchOptions struct {
	// Workers bounds how many replicas run concurrently; 0 means the
	// solver's Config.Workers default (GOMAXPROCS when that is also 0).
	Workers int
	// JobWorkers is the per-replica PE worker count (Config.Workers of
	// the per-job runs). 0 means the cores the batch leaves free per
	// replica: Workers / min(len(seeds), Workers), at least 1. A batch
	// with as many replicas in flight as Workers runs single-threaded
	// jobs; a one-replica batch spreads its tile pairs over all Workers.
	// Either way Workers × JobWorkers bounds the batch's parallelism.
	// Results do not depend on this value — per-job scheduling is
	// invisible (see race_test.go) — so it is purely a throughput knob.
	JobWorkers int
	// EarlyStop enables the portfolio mode: the first replica whose best
	// energy reaches the solver's TargetEnergy raises a shared flag and
	// the remaining replicas cancel at their next global-iteration
	// boundary (Result.Stopped reports which). Requires a TargetEnergy;
	// cancelled replicas' results reflect only the iterations they ran,
	// so batch output is schedule-dependent in this mode — leave it off
	// when reproducibility across worker counts matters.
	EarlyStop bool
	// Tempering, when non-nil, couples the replicas into a
	// parallel-tempering portfolio instead of running them
	// independently: replica r becomes rung r of a geometric noise
	// ladder and adjacent rungs exchange configurations at
	// global-iteration boundaries (see temper.go). Incompatible with
	// EarlyStop (a TargetEnergy alone stops the whole ladder,
	// deterministically); JobWorkers is ignored — the ladder runs one
	// shared PE pool of Workers goroutines.
	Tempering *TemperingOptions
}

// BatchResult aggregates one RunBatch call.
type BatchResult struct {
	// Results holds one Result per seed, in seed order.
	Results []*Result
	// BestIndex is the index (into Results) of the lowest-energy
	// replica; ties break toward the lower index.
	BestIndex int
	// BestEnergy, MeanEnergy and MedianEnergy summarize the replicas'
	// best energies.
	BestEnergy   float64
	MeanEnergy   float64
	MedianEnergy float64
	// Succeeded counts replicas that reached TargetEnergy; SuccessProb
	// is Succeeded over the replica count (0 when no target is set).
	Succeeded   int
	SuccessProb float64
	// Stopped counts replicas cancelled by the portfolio early-stop.
	Stopped int
	// JobWorkers is the PE worker count each replica ran with: the
	// resolved BatchOptions.JobWorkers, or for a tempering ladder the
	// width of its one shared pool.
	JobWorkers int
	// Ops is the sum of the replicas' algorithm-level operation
	// counters — the work the whole batch put through the datapath.
	Ops metrics.OpCounts
	// Tempering carries the ladder and exchange statistics when the
	// batch ran as a tempering portfolio (BatchOptions.Tempering); nil
	// for independent-replica batches.
	Tempering *TemperingStats
}

// Best returns the lowest-energy replica's result.
func (b *BatchResult) Best() *Result { return b.Results[b.BestIndex] }

// SeedRange returns n consecutive seeds starting at base — the common
// replica-seed convention of the CLIs. Consecutive job seeds are safe:
// seedStream whitens them into unrelated controller/pair/device streams.
// A range whose last seed would pass math.MaxInt64 is an error rather
// than a silent wrap: the wrapped seeds would collide with the negative
// seed space and duplicate streams across replicas.
func SeedRange(base int64, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative seed count %d", n)
	}
	if n > 0 && base > math.MaxInt64-int64(n-1) {
		return nil, fmt.Errorf("core: seed range %d+%d overflows int64", base, n)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds, nil
}

// RunBatch executes one replica per seed over the shared preprocessed
// solver, up to opts.Workers at a time, and aggregates the results.
// Replica j is bit-identical to s.Run(seeds[j]) run alone — each
// replica's randomness is a pure function of its seed, and job-scoped
// engine state is isolated per replica via tiling.SessionEngine — so
// with EarlyStop off the batch output does not depend on Workers,
// JobWorkers or goroutine scheduling.
func (s *Solver) RunBatch(seeds []int64, opts BatchOptions) (*BatchResult, error) {
	return s.RunBatchCtx(context.Background(), seeds, opts)
}

// RunBatchCtx is RunBatch under caller-controlled cancellation: every
// replica observes the context's cancel or deadline at its
// global-iteration boundaries (exactly like the portfolio stop flag)
// and winds down with Result.Stopped set and its best-so-far state.
// Cancellation is not an error — the aggregated BatchResult reports how
// many replicas were cut short via BatchResult.Stopped — so a service
// draining a deadline-bounded job still gets every replica's partial
// best. Replicas that finish before the context fires are bit-identical
// to their RunBatch counterparts; replicas cancelled before they start
// report zero-iteration stopped results.
func (s *Solver) RunBatchCtx(ctx context.Context, seeds []int64, opts BatchOptions) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one seed")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative batch worker count %d", opts.Workers)
	}
	if opts.JobWorkers < 0 {
		return nil, fmt.Errorf("core: negative per-job worker count %d", opts.JobWorkers)
	}
	if opts.Tempering != nil {
		return s.runTemperingCtx(ctx, seeds, opts)
	}
	if opts.EarlyStop && s.cfg.TargetEnergy == nil {
		return nil, fmt.Errorf("core: batch early-stop requires Config.TargetEnergy")
	}
	workers := opts.Workers
	if workers == 0 {
		workers = s.cfg.workers()
	}
	jobWorkers := opts.JobWorkers
	if jobWorkers == 0 {
		jobWorkers = defaultJobWorkers(workers, len(seeds))
	}
	runner, err := s.WithRuntime(func(c *Config) { c.Workers = jobWorkers })
	if err != nil {
		return nil, err
	}

	var stop *batchStop
	if opts.EarlyStop {
		stop = &batchStop{}
	}
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(seeds))
	for j := range seeds {
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if (stop != nil && stop.stopped()) || ctx.Err() != nil {
				// Cancelled before starting: report a zero-iteration
				// stopped result rather than running for nothing.
				r, err := runner.cancelledResult(seeds[j])
				results[j], errs[j] = r, err
				return
			}
			r, err := runner.runJob(ctx, seeds[j], stop)
			if err == nil && stop != nil && r.ReachedTarget {
				stop.raise()
			}
			results[j], errs[j] = r, err
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b := aggregate(results)
	b.JobWorkers = jobWorkers
	return b, nil
}

// defaultJobWorkers is the per-replica PE pool width when the caller
// sets none: the batch's worker slots divided among the replicas that
// can be in flight at once, so the replicas of a small batch fill the
// cores a one-goroutine-per-replica schedule would leave idle.
func defaultJobWorkers(workers, replicas int) int {
	return max(1, workers/min(replicas, workers))
}

// cancelledResult builds the Result for a replica the portfolio stop
// cancelled before its first global iteration: the (seed-determined)
// initial state evaluated once, zero iterations run.
func (s *Solver) cancelledResult(seed int64) (*Result, error) {
	zero, err := s.WithRuntime(func(c *Config) { c.GlobalIters = 1 })
	if err != nil {
		return nil, err
	}
	pre := &batchStop{}
	pre.raise()
	return zero.runJob(nil, seed, pre)
}

// aggregate folds per-replica results into a BatchResult.
func aggregate(results []*Result) *BatchResult {
	b := &BatchResult{Results: results}
	energies := make([]float64, len(results))
	for i, r := range results {
		energies[i] = r.BestEnergy
		if r.BestEnergy < results[b.BestIndex].BestEnergy {
			b.BestIndex = i
		}
		if r.ReachedTarget {
			b.Succeeded++
		}
		if r.Stopped {
			b.Stopped++
		}
		b.Ops.Add(r.Ops)
	}
	b.BestEnergy = results[b.BestIndex].BestEnergy
	mean := 0.0
	for _, e := range energies {
		mean += e
	}
	b.MeanEnergy = mean / float64(len(energies))
	sort.Float64s(energies)
	mid := len(energies) / 2
	if len(energies)%2 == 1 {
		b.MedianEnergy = energies[mid]
	} else {
		b.MedianEnergy = (energies[mid-1] + energies[mid]) / 2
	}
	b.SuccessProb = float64(b.Succeeded) / float64(len(results))
	return b
}
