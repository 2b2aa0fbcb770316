package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sophie/internal/core"
	"sophie/internal/metrics"
	"sophie/internal/problem"
	"sophie/internal/service"
	"sophie/internal/trace"
)

// Sum-check tolerance: the replayed layers must cover the replayed
// total to within sumTolFrac of it plus sumTolAbs (the clock reads and
// config plumbing between the timed calls).
const (
	sumTolFrac = 0.02
	sumTolAbs  = time.Millisecond
)

// layers is one job replayed layer by layer through the public APIs the
// service itself calls, each timed from outside.
type layers struct {
	parse, compile, build, runtime, solve, decode, encode time.Duration
	total                                                 time.Duration // around the seven calls above
	untracedSolve                                         time.Duration // the same solve without a recorder
	phases                                                trace.Phases
	tracedMVMs                                            uint64 // local MVMs of the timed, traced solve
	spins, nnz                                            int
	// Counts from a deterministic pass (early stop off): they repeat
	// exactly for a given seed.
	ops           metrics.OpCounts
	itersToTarget []int // per replica; 0 when the target was never reached
	objective     float64
}

func (l *layers) sum() time.Duration {
	return l.parse + l.compile + l.build + l.runtime + l.solve + l.decode + l.encode
}

// coreConfigs mirrors the service's resolution of a JobSpec into the
// preprocessing config the cached solver is built from, the job's run
// config, its replica seeds and its batch options. Only the overrides
// the workloads use are mirrored; any other is refused.
func coreConfigs(spec service.JobSpec) (base, run core.Config, seeds []int64, opts core.BatchOptions, err error) {
	o := spec.Config
	probe := o
	probe.TileSize, probe.GlobalIters, probe.SkipTransform, probe.TargetEnergy = nil, nil, nil, nil
	if probe != (service.ConfigOverrides{}) || spec.Tempering != nil || len(spec.Seeds) > 0 {
		return base, run, nil, opts, fmt.Errorf("replay does not mirror this job spec's settings")
	}
	run = core.DefaultConfig()
	run.Seed = spec.Seed
	if o.TileSize != nil {
		run.TileSize = *o.TileSize
	}
	if o.GlobalIters != nil {
		run.GlobalIters = *o.GlobalIters
	}
	if o.SkipTransform != nil {
		run.SkipTransform = *o.SkipTransform
	}
	if o.TargetEnergy != nil {
		t := *o.TargetEnergy
		run.TargetEnergy = &t
	}
	def := core.DefaultConfig()
	base = run
	base.GlobalIters = def.GlobalIters
	base.TargetEnergy = nil
	base.Seed = 0
	replicas := spec.Replicas
	if replicas == 0 {
		replicas = 1
	}
	seeds, err = core.SeedRange(spec.Seed, replicas)
	return base, run, seeds, core.BatchOptions{EarlyStop: spec.EarlyStop}, err
}

// replayJob runs one job's layers in the service's order: parse,
// compile, solver build, runtime config with a timing recorder, the
// batch solve, decode, and the JSON encode of the result view. It also
// solves the job without a recorder (the tracing-overhead baseline),
// before the layers when untracedFirst is set and after them otherwise,
// so alternating jobs cancel any order effect; and, for early-stopping
// jobs, once more with early stop off for counts that repeat exactly.
func replayJob(ctx context.Context, in *instance, body []byte, untracedFirst bool) (*layers, error) {
	var spec service.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, err
	}
	base, runCfg, seeds, opts, err := coreConfigs(spec)
	if err != nil {
		return nil, err
	}
	target := in.targetEnergy(0.95)
	l := &layers{}
	untraced := func(solver *core.Solver) error {
		plain, err := solver.WithRuntime(func(cfg *core.Config) { *cfg = runCfg })
		if err != nil {
			return err
		}
		t := time.Now()
		_, err = plain.RunBatchCtx(ctx, seeds, opts)
		l.untracedSolve = time.Since(t)
		return err
	}
	if untracedFirst {
		c, err := problem.Compile(in.prob)
		if err != nil {
			return nil, err
		}
		solver, err := core.NewSolver(c.Model, base)
		if err != nil {
			return nil, err
		}
		if err := untraced(solver); err != nil {
			return nil, err
		}
	}
	rec := trace.NewRecorder(trace.Options{Timing: true, Capacity: 64, Kinds: trace.KindRunEnd.Mask()})

	start := time.Now()
	t := time.Now()
	p, err := problem.ParseSpec(spec.Problem)
	l.parse = time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	c, err := problem.Compile(p)
	l.compile = time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	solver, err := core.NewSolver(c.Model, base)
	l.build = time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	runner, err := solver.WithRuntime(func(cfg *core.Config) {
		*cfg = runCfg
		cfg.Tracer = rec
		cfg.RecordTrace = !opts.EarlyStop
	})
	l.runtime = time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	res, err := runner.RunBatchCtx(ctx, seeds, opts)
	l.solve = time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	sol, err := p.Decode(res.Best().BestSpins)
	l.decode = time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	_, err = json.Marshal(replayView(res, sol, c.Offset, seeds))
	l.encode = time.Since(t)
	l.total = time.Since(start)
	if err != nil {
		return nil, err
	}
	l.phases = rec.PhaseTimes()
	l.tracedMVMs = res.Ops.LocalMVM1b + res.Ops.LocalMVM8b
	l.spins = c.Model.N()
	if cs, err := c.Model.Sparse(); err == nil {
		l.nnz = cs.NNZ()
	}

	if !untracedFirst {
		if err := untraced(solver); err != nil {
			return nil, err
		}
	}

	counted := res
	if opts.EarlyStop {
		exact, err := solver.WithRuntime(func(cfg *core.Config) {
			*cfg = runCfg
			cfg.RecordTrace = true
		})
		if err != nil {
			return nil, err
		}
		if counted, err = exact.RunBatchCtx(ctx, seeds, core.BatchOptions{}); err != nil {
			return nil, err
		}
	}
	l.ops = counted.Ops
	for _, r := range counted.Results {
		iters := 0
		for i, e := range r.Trace {
			if e <= target {
				iters = i + 1
				break
			}
		}
		l.itersToTarget = append(l.itersToTarget, iters)
	}
	best, err := p.Decode(counted.Best().BestSpins)
	if err != nil {
		return nil, err
	}
	l.objective = best.Objective
	return l, nil
}

// replayView renders a batch the way the service renders a finished job.
func replayView(b *core.BatchResult, sol *problem.Solution, offset float64, seeds []int64) service.JobView {
	best := b.Best()
	obj := sol.Objective
	rv := &service.ResultView{
		BestEnergy:    b.BestEnergy,
		BestObjective: &obj,
		Solution:      sol,
		EnergyOffset:  offset,
		BestIndex:     b.BestIndex,
		BestSpins:     best.BestSpins,
		MeanEnergy:    b.MeanEnergy,
		MedianEnergy:  b.MedianEnergy,
		Succeeded:     b.Succeeded,
		SuccessProb:   b.SuccessProb,
		Stopped:       b.Stopped,
		Ops:           b.Ops,
	}
	for i, r := range b.Results {
		rv.Replicas = append(rv.Replicas, service.ReplicaView{
			Seed: seeds[i], BestEnergy: r.BestEnergy, BestGlobalIter: r.BestGlobalIter,
			GlobalItersRun: r.GlobalItersRun, ReachedTarget: r.ReachedTarget, Stopped: r.Stopped,
		})
	}
	return service.JobView{ID: "replay", State: service.StateDone, Replicas: len(seeds), Seeds: seeds, Result: rv}
}

// perLayer replays the workload's first jobs and fills the traced
// run's metrics. It fails the run's correctness when the layers do not
// add up to the replayed total.
func (b *bench) perLayer(res *result, l *load) error {
	var reps []*layers
	replayed := map[[2]int]bool{} // (client, index) of every replayed job
	for k := 0; len(reps) < b.w.replay; k++ {
		for c := 0; c < b.w.clients && len(reps) < b.w.replay; c++ {
			in, body, err := b.job(c, k)
			if err != nil {
				return err
			}
			r, err := replayJob(context.Background(), in, body, len(reps)%2 == 1)
			if err != nil {
				return fmt.Errorf("replaying client %d job %d: %w", c, k, err)
			}
			reps = append(reps, r)
			replayed[[2]int{c, k}] = true
		}
	}
	res.attempted += len(reps)

	// Layer times are means per job, so they add.
	meanOf := func(f func(*layers) float64) float64 {
		t := 0.0
		for _, r := range reps {
			t += f(r)
		}
		return t / float64(len(reps))
	}
	secs := func(f func(*layers) time.Duration) float64 {
		return meanOf(func(r *layers) float64 { return f(r).Seconds() })
	}
	sumGap, worstGap := 0.0, 0.0
	for _, r := range reps {
		gap := (r.total - r.sum()).Seconds()
		sumGap += gap
		tol := sumTolFrac*r.total.Seconds() + sumTolAbs.Seconds()
		if gap < -tol || gap > tol {
			res.correct = false
			res.failed++
		}
		worstGap = max(worstGap, math.Abs(gap)/tol)
	}

	var lat, submit, queue, exec, notify, resultBytes, pairedLat []float64
	for _, o := range l.outcomes {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.latency.Seconds())
		submit = append(submit, o.submit.Seconds())
		notify = append(notify, o.notify.Seconds())
		resultBytes = append(resultBytes, float64(o.resultBytes))
		queue = append(queue, o.queueWait.Seconds())
		exec = append(exec, o.exec.Seconds())
		if replayed[[2]int{o.client, o.index}] {
			pairedLat = append(pairedLat, o.latency.Seconds())
		}
	}
	hitFrac := 0.0
	if n := l.cache.Hits + l.cache.Misses; n > 0 {
		hitFrac = float64(l.cache.Hits) / float64(n)
	}
	// Service overhead: the untraced end-to-end time less the replayed
	// layers, the build counted only on the cache's miss share.
	layerSum := secs((*layers).sum) - hitFrac*secs(func(r *layers) time.Duration { return r.build })
	overhead := mean(pairedLat) - layerSum

	var iters []float64
	for _, r := range reps {
		for _, it := range r.itersToTarget {
			if it > 0 {
				iters = append(iters, float64(it))
			}
		}
	}
	mvms := meanOf(func(r *layers) float64 { return float64(r.tracedMVMs) })
	localNS := meanOf(func(r *layers) float64 { return float64(r.phases.LocalNS) })
	tracedSolve := secs(func(r *layers) time.Duration { return r.solve })
	untracedSolve := secs(func(r *layers) time.Duration { return r.untracedSolve })
	nsPerMVM := 0.0
	if mvms > 0 {
		nsPerMVM = localNS / mvms
	}

	add := func(name, unit string, value float64) {
		res.add(metric{Name: name, Unit: unit, Value: value, Samples: len(reps)})
	}
	add("problem.parse_s", "s", secs(func(r *layers) time.Duration { return r.parse }))
	add("problem.compile_s", "s", secs(func(r *layers) time.Duration { return r.compile }))
	add("problem.decode_s", "s", secs(func(r *layers) time.Duration { return r.decode }))
	add("problem.spins", "count", meanOf(func(r *layers) float64 { return float64(r.spins) }))
	add("problem.nnz", "count", meanOf(func(r *layers) float64 { return float64(r.nnz) }))
	add("core.build_s", "s", secs(func(r *layers) time.Duration { return r.build }))
	add("core.runtime_s", "s", secs(func(r *layers) time.Duration { return r.runtime }))
	add("core.solve_s", "s", tracedSolve)
	add("core.init_s", "s", meanOf(func(r *layers) float64 { return float64(r.phases.InitNS) / 1e9 }))
	add("core.local_s", "s", localNS/1e9)
	add("core.global_s", "s", meanOf(func(r *layers) float64 { return float64(r.phases.GlobalNS) / 1e9 }))
	add("core.mvm_1b", "count", meanOf(func(r *layers) float64 { return float64(r.ops.LocalMVM1b) }))
	add("core.mvm_8b", "count", meanOf(func(r *layers) float64 { return float64(r.ops.LocalMVM8b) }))
	add("core.global_syncs", "count", meanOf(func(r *layers) float64 { return float64(r.ops.GlobalSyncs) }))
	add("core.ns_per_mvm", "ns", nsPerMVM)
	res.add(summary("core.iters_to_target", "count", iters, quantile(iters, 0.5)))
	add("core.objective", "count", meanOf(func(r *layers) float64 { return r.objective }))
	res.add(summary("service.submit_s", "s", submit, mean(submit)))
	res.add(summary("service.queue_wait_s", "s", queue, mean(queue)))
	res.add(summary("service.exec_s", "s", exec, mean(exec)))
	res.add(summary("service.notify_s", "s", notify, mean(notify)))
	add("service.encode_s", "s", secs(func(r *layers) time.Duration { return r.encode }))
	res.add(summary("service.result_bytes", "bytes", resultBytes, mean(resultBytes)))
	res.add(metric{Name: "service.cache_hit_frac", Unit: "frac", Value: hitFrac, Samples: int(l.cache.Hits + l.cache.Misses)})
	res.add(metric{Name: "service.overhead_s", Unit: "s", Value: overhead, Samples: len(pairedLat)})
	res.add(summary("service.latency_s", "s", lat, mean(lat)))
	res.add(metric{Name: "wal.append_sync_s", Unit: "s", Value: l.wal.syncS, Samples: int(l.wal.syncN)})
	res.add(metric{Name: "wal.append_buffered_s", Unit: "s", Value: l.wal.bufferedS, Samples: int(l.wal.bufferedN)})
	res.add(metric{Name: "wal.appends", Unit: "count", Value: float64(l.wal.syncN + l.wal.bufferedN)})
	add("trace.replay_total_s", "s", secs(func(r *layers) time.Duration { return r.total }))
	add("trace.sum_gap_s", "s", sumGap/float64(len(reps)))
	add("trace.sum_gap_over_tol", "frac", worstGap)
	overheadFrac := 0.0
	if untracedSolve > 0 {
		overheadFrac = tracedSolve/untracedSolve - 1
	}
	add("trace.overhead_frac", "frac", overheadFrac)
	for i := range res.metrics {
		res.metrics[i].Contract = true
	}
	return nil
}
