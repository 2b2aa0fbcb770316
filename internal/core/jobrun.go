package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sophie/internal/tiling"
	"sophie/internal/trace"
)

// jobRun is one job's controller state, stepped by the one run loop,
// lockstep: every job — a lone Run, each RunBatch replica, every rung
// of a tempering ladder — is a jobRun, and lockstep advances a set of
// them through the same global iteration over one shared PE worker
// pool, dispatched pair-major so every job's local batch for tile pair
// p runs while p's tiles are hot (reuse-aware scheduling).
//
// newJobRun + beginIter/localPair/endIter/finish replay the original
// monolithic loop body statement for statement, in particular every
// RNG draw and every trace emission happens in the same order, so a
// completed run is bit-identical to the pre-split solver (pinned by the
// golden and determinism tests). localPair is the per-pair local
// update: the delta or reference recurrence, or on a diagonal pair of a
// ColoredUpdate solver the color-class sweep (colored.go).
//
// Concurrency contract: beginIter, endIter, and every other method
// except localPair are controller-side — they must be called from one
// goroutine per jobRun, in iteration order. localPair(pi, w) touches
// only states[pi], the calling PE worker's scratch w, and the
// (concurrency-safe) engine view, so distinct pairs of one jobRun — and
// any pairs of distinct jobRuns — may run concurrently on distinct
// workers between a beginIter and its endIter.
type jobRun struct {
	rc   *runContext
	seed int64
	ctrl *rand.Rand // controller RNG: init state, tile selection, spin picks

	// Controller-global state: padded binary spin vector, the table of
	// last-reported partial sums P[i][j] = C_ij·S_j, and the fast path's
	// running row-sum cache over it (nil on the reference path).
	sGlobal  []float64
	partial  [][]float64
	rowSum   [][]float64
	useDelta bool

	states []*pairState
	run    *trace.Run
	res    Result

	// The open global iteration and its noise level (set by beginIter,
	// read by localPair), and the driver's pool the colored sweep
	// shards over.
	iter int
	phi  float64
	pool *pePool

	// Evaluation state: scratch spins, the incremental energy tracker
	// (fast path only), and the previous evaluation for flip counting.
	evalSpins []int8
	tracker   *energyTracker
	prevEval  []int8

	// Selection and reconciliation scratch, reused across iterations.
	copies      [][][]float64
	selectCount int
	perm        []int
	selected    []int
}

func (j *jobRun) pIdx(r, c int) int { return r*j.rc.grid.Tiles + c }

// newJobRun initializes one job over its runContext view: controller
// RNG, initial spin state, exact partial-sum table (charged as init
// MVMs), row-sum cache, per-pair PE states, and the trace run. It ends
// by emitting InitDone; the caller drives iterations next.
func newJobRun(rc *runContext, seed int64) (*jobRun, error) {
	cfg := rc.cfg
	t := cfg.TileSize
	grid := rc.grid
	nPairs := grid.PairCount()
	j := &jobRun{
		rc:   rc,
		seed: seed,
		ctrl: rand.New(rand.NewSource(seedStream(seed, roleController, 0))),
	}

	paddedN := grid.PaddedN()
	j.sGlobal = make([]float64, paddedN)
	if cfg.InitialSpins != nil {
		if len(cfg.InitialSpins) != rc.model.N() {
			return nil, fmt.Errorf("core: %d initial spins for %d-spin model", len(cfg.InitialSpins), rc.model.N())
		}
		for i, sp := range cfg.InitialSpins {
			if sp == 1 {
				j.sGlobal[i] = 1
			}
		}
	} else {
		for i := 0; i < rc.model.N(); i++ {
			if j.ctrl.Intn(2) == 1 {
				j.sGlobal[i] = 1
			}
		}
	}
	j.partial = make([][]float64, grid.Tiles*grid.Tiles)
	for i := range j.partial {
		j.partial[i] = make([]float64, t)
	}

	// Execution-trace spine (internal/trace): every hardware-visible
	// operation of this run is emitted as an event, and Result.Ops is the
	// fold of that stream — one accounting definition serves the live
	// counters, the recorder's replay consumers, and trace-driven PPA.
	// With no recorder attached (cfg.Tracer nil) the Run reduces to the
	// fold arithmetic alone. Tracing consumes no randomness: the run's
	// trajectory is bit-identical with a recorder attached or not.
	j.run = trace.NewRun(trace.Meta{
		Nodes:        rc.model.N(),
		TileSize:     t,
		Tiles:        grid.Tiles,
		Pairs:        nPairs,
		LocalIters:   cfg.LocalIters,
		GlobalIters:  cfg.GlobalIters,
		TileFraction: cfg.TileFraction,
		Stochastic:   cfg.SpinUpdate == SpinUpdateStochastic,
		Seed:         seed,
		Device:       rc.quant != nil,
	}, cfg.Tracer)
	if j.run.WantsDeviceEvents() {
		// The per-job engine view tags device-plane events (sampled MVMs,
		// reprogramming) when it can. For session engines this attaches
		// the job's own session, so sibling jobs stay untraced; the ideal
		// engine has no device plane and implements no sink.
		if sink, ok := rc.eng.(tiling.TraceSink); ok {
			sink.AttachTrace(j.run.Recorder())
		}
	}

	// Initialize the partial-sum table exactly, as the host does when it
	// transfers initial buffer contents (Section III-E). A diagonal pair
	// executes (and is charged) one MVM; an off-diagonal pair two.
	buf := make([]float64, t)
	for _, p := range rc.pairs {
		pi := grid.PairIndex(p.Row, p.Col)
		rc.eng.Mul(pi, false, grid.Block(j.sGlobal, p.Col), buf)
		copy(j.partial[j.pIdx(p.Row, p.Col)], buf)
		if p.IsDiagonal() {
			j.run.InitMVM(pi, true)
			continue
		}
		rc.eng.Mul(pi, true, grid.Block(j.sGlobal, p.Row), buf)
		copy(j.partial[j.pIdx(p.Col, p.Row)], buf)
		j.run.InitMVM(pi, false)
	}

	// The incremental datapath engages when the engine supports delta
	// updates and the exact reference path was not forced. It maintains
	// a running row-sum cache over the partial-sum table so each load
	// phase builds offset vectors in O(t) instead of O(Tiles·t):
	// rowSum[r] = Σ_k partial[r][k], and the offset for (r, skip) is
	// rowSum[r] - partial[r][skip].
	j.useDelta = rc.delta != nil && !cfg.ExactRecompute
	if j.useDelta {
		j.rowSum = make([][]float64, grid.Tiles)
		for r := range j.rowSum {
			j.rowSum[r] = make([]float64, t)
			for k := 0; k < grid.Tiles; k++ {
				src := j.partial[j.pIdx(r, k)]
				for i, v := range src {
					j.rowSum[r][i] += v
				}
			}
		}
	}

	// Per-pair simulated PEs with persistent RNG streams; deterministic
	// given seed regardless of goroutine scheduling. Streams are
	// separated by seedStream (see seed.go) so no pair shares a stream
	// with the controller, a sibling pair, or any stream of another
	// batched job. A colored diagonal pair draws only the stateless
	// coloredNormal stream, so it gets no threshold-noise source.
	j.states = make([]*pairState, nPairs)
	for i := range j.states {
		st := newPairState(t, rc.pairs[i].IsDiagonal(), j.useDelta)
		if !j.coloredPair(i) {
			st.noise = newNormStream(seedStream(seed, rolePair, i))
		}
		j.states[i] = st
	}

	n := rc.model.N()
	j.res.BestSpins = bestSpinsFrom(j.sGlobal, n)
	j.res.BestEnergy = rc.model.Energy(j.res.BestSpins)

	// Per-run evaluation scratch: evalSpins is reused at every eval
	// point (BestSpins is only written on improvement), and on the fast
	// path tracker carries the energy across sync points so unchanged
	// or sparsely changed states avoid re-walking every edge.
	j.evalSpins = make([]int8, n)
	if j.useDelta {
		j.tracker = newEnergyTracker(rc.model, j.res.BestSpins, j.res.BestEnergy, rc.exactEnergy)
	}
	// Flip accounting for KindEnergy events costs an O(n) diff per
	// evaluation, so the previous-evaluation state is only kept when a
	// recorder actually retains energy events.
	if j.run.WantsEnergyDetail() {
		j.prevEval = append([]int8(nil), j.res.BestSpins...)
	}
	// Reconciliation scratch, reused across global iterations (the
	// inner per-block slices keep their capacity between rounds).
	j.copies = make([][][]float64, grid.Tiles)

	j.selectCount = int(float64(nPairs)*cfg.TileFraction + 0.5)
	if j.selectCount < 1 {
		j.selectCount = 1
	}
	j.perm = make([]int, nPairs)
	for i := range j.perm {
		j.perm[i] = i
	}
	j.selected = make([]int, 0, j.selectCount)

	j.run.InitDone()
	return j, nil
}

// shouldStop polls the batch portfolio stop flag and the caller's
// context at an iteration boundary; when either fired it marks the
// result stopped and reports true. Neither poll consumes randomness, so
// a run that completes is bit-identical to an uncancellable one.
func (j *jobRun) shouldStop() bool {
	if j.rc.stop != nil && j.rc.stop.stopped() {
		j.res.Stopped = true
		return true
	}
	if j.rc.ctx != nil {
		select {
		case <-j.rc.ctx.Done():
			j.res.Stopped = true
			return true
		default:
		}
	}
	return false
}

// phiAt returns the geometric noise-annealing schedule's level at
// global iteration g (constant when PhiEnd is 0).
func (j *jobRun) phiAt(g int) float64 {
	cfg := &j.rc.cfg
	//sophielint:ignore floateq exact equality of two user-set config values selects the constant-noise fast path
	if cfg.PhiEnd <= 0 || cfg.Phi == cfg.PhiEnd || cfg.GlobalIters == 1 {
		return cfg.Phi
	}
	frac := float64(g-1) / float64(cfg.GlobalIters-1)
	return cfg.Phi * math.Pow(cfg.PhiEnd/cfg.Phi, frac)
}

// beginIter opens global iteration g: stochastic pair selection, then
// the load phase (each selected pair copies its spin blocks and
// rebuilds its offset vectors from the partial-sum table). The selected
// pairs are in j.selected and the iteration's noise level in j.phi.
// After beginIter the caller dispatches localPair for every selected
// pair (concurrently if it likes), then calls endIter.
func (j *jobRun) beginIter(g int) {
	rc := j.rc
	grid := rc.grid
	nPairs := grid.PairCount()
	phi := j.phiAt(g)
	j.iter, j.phi = g, phi

	// --- Stochastic tile computation: pick the pairs for this round.
	j.selected = j.selected[:0]
	if j.selectCount == nPairs {
		j.selected = append(j.selected, j.perm...)
	} else {
		j.ctrl.Shuffle(nPairs, func(a, b int) { j.perm[a], j.perm[b] = j.perm[b], j.perm[a] })
		j.selected = append(j.selected, j.perm[:j.selectCount]...)
	}
	j.run.GlobalStart(g, len(j.selected), phi)

	// --- Load phase.
	for _, pi := range j.selected {
		p := rc.pairs[pi]
		st := j.states[pi]
		copy(st.xRow, grid.Block(j.sGlobal, p.Row))
		if j.useDelta {
			buildOffsetCached(st.offRow, j.rowSum[p.Row], j.partial[j.pIdx(p.Row, p.Col)])
		} else {
			rc.buildOffset(st.offRow, j.partial, j.pIdx, p.Row, p.Col)
		}
		if !p.IsDiagonal() {
			copy(st.xCol, grid.Block(j.sGlobal, p.Col))
			if j.useDelta {
				buildOffsetCached(st.offCol, j.rowSum[p.Col], j.partial[j.pIdx(p.Col, p.Row)])
			} else {
				rc.buildOffset(st.offCol, j.partial, j.pIdx, p.Col, p.Row)
			}
		}
	}
	j.run.LoadDone(g, len(j.selected))
}

// coloredPair reports whether pair pi runs the colored sweep.
func (j *jobRun) coloredPair(pi int) bool {
	return j.rc.colored != nil && j.rc.colored[pi] != nil
}

// localPair runs the local-iteration batch of one selected pair — the
// PE worker body, on the calling worker's private scratch w. Safe to
// call concurrently for distinct pairs and distinct scratch.
func (j *jobRun) localPair(pi int, w *peScratch) {
	switch {
	case j.coloredPair(pi):
		j.sweepColored(pi)
	case j.useDelta:
		j.rc.runLocalIterationsDelta(j.states[pi], j.rc.pairs[pi], pi, j.phi, w.block(j.rc.cfg.TileSize))
	default:
		j.rc.runLocalIterations(j.states[pi], j.rc.pairs[pi], pi, j.phi, w.block(j.rc.cfg.TileSize))
	}
}

// endIter closes global iteration g after every selected pair's
// localPair completed: local-batch accounting, global synchronization,
// and — at evaluation points — energy tracking, trace, the observer
// callback, and the TargetEnergy check. It reports whether the target
// was reached (in which case GlobalEnd is not emitted, matching the
// pre-split early return).
func (j *jobRun) endIter(g int) bool {
	rc := j.rc
	cfg := &rc.cfg

	for _, pi := range j.selected {
		j.run.LocalBatch(g, pi, rc.pairs[pi].IsDiagonal())
	}
	j.run.LocalDone(g)

	// --- Global synchronization (controller).
	rc.synchronize(j.states, j.selected, j.sGlobal, j.partial, j.pIdx, j.ctrl, j.rowSum, j.copies, g, j.run)
	j.run.SyncBarrier(g)

	j.res.GlobalItersRun = g
	j.res.TotalLocalIters = g * cfg.LocalIters

	// --- Track solution quality on the reconciled global state.
	if g%cfg.EvalEvery == 0 || g == cfg.GlobalIters {
		fillSpins(j.evalSpins, j.sGlobal)
		var e float64
		if j.tracker != nil {
			e = j.tracker.energyAt(j.evalSpins)
		} else {
			e = rc.model.Energy(j.evalSpins)
		}
		improved := e < j.res.BestEnergy
		if improved {
			j.res.BestEnergy = e
			j.res.BestGlobalIter = g
			copy(j.res.BestSpins, j.evalSpins)
		}
		if cfg.RecordTrace {
			j.res.Trace = append(j.res.Trace, j.res.BestEnergy)
		}
		if j.prevEval != nil {
			flips := 0
			for i, v := range j.evalSpins {
				if v != j.prevEval[i] {
					flips++
				}
			}
			copy(j.prevEval, j.evalSpins)
			j.run.Energy(g, j.res.BestEnergy, flips, improved)
		}
		if cfg.OnGlobalIteration != nil {
			cfg.OnGlobalIteration(g, j.res.BestEnergy)
		}
		if cfg.TargetEnergy != nil && j.res.BestEnergy <= *cfg.TargetEnergy {
			j.res.ReachedTarget = true
			return true
		}
	}
	j.run.GlobalEnd(g)
	return false
}

// finish closes the trace run and folds the operation counters into the
// result. Call exactly once, after the last iteration (or early exit).
func (j *jobRun) finish() {
	j.run.End()
	j.res.Ops = j.run.Ops()
}

// currentEnergy returns the Hamiltonian of the current reconciled
// global state — the exact re-anchored energy the tempering driver's
// exchange test uses. On the fast path it goes through the incremental
// tracker (bit-exact for integer couplings, a full walk otherwise), so
// exchange boundaries double as the drift re-anchor points the
// baseline's incremental accumulator lacked.
func (j *jobRun) currentEnergy() float64 {
	fillSpins(j.evalSpins, j.sGlobal)
	if j.tracker != nil {
		return j.tracker.energyAt(j.evalSpins)
	}
	return j.rc.model.Energy(j.evalSpins)
}

// observeEnergy folds an out-of-band evaluation (an exchange boundary)
// into the best-so-far bookkeeping. e must be the energy of the state
// currently in evalSpins (i.e. the last currentEnergy call).
func (j *jobRun) observeEnergy(g int, e float64) {
	if e < j.res.BestEnergy {
		j.res.BestEnergy = e
		j.res.BestGlobalIter = g
		copy(j.res.BestSpins, j.evalSpins)
	}
}

// swapStateWith exchanges the two jobs' spin configurations — the
// tempering swap. Only the configuration travels: the global spin
// vector, the partial-sum table it determines, the row-sum cache over
// that table, and the energy tracker keyed to the state. Everything
// else — RNG streams, pair states (reloaded from sGlobal every
// iteration and re-anchored at local iteration 0), best-so-far
// bookkeeping, the trace run — stays with the rung, which is what makes
// this the textbook "swap states, keep temperatures" exchange.
func (j *jobRun) swapStateWith(o *jobRun) {
	j.sGlobal, o.sGlobal = o.sGlobal, j.sGlobal
	j.partial, o.partial = o.partial, j.partial
	j.rowSum, o.rowSum = o.rowSum, j.rowSum
	j.tracker, o.tracker = o.tracker, j.tracker
}

// pePool is the lockstep driver's PE worker pool. Workers take whole
// pairs from the driver's dispatch channel and shards — slices of one
// diagonal pair's colored sweep — from a buffered side queue. The pool
// drains and exits when the driver closes pairs, so early exits leak
// nothing. Determinism does not depend on which worker runs what: each
// pair owns its persistent RNG stream in states[pi], each worker owns
// its peScratch (whose contents never outlive one threshold pass),
// shards write disjoint memory, and the round and shard WaitGroups
// order all PE writes before the reads that follow them.
type pePool struct {
	width  int
	pairs  chan peTask
	shards chan peShard
	round  sync.WaitGroup
}

type peTask struct {
	j  *jobRun
	pi int
}

type peShard struct {
	f    func(part int)
	part int
	done *sync.WaitGroup
}

func (sh peShard) run() {
	sh.f(sh.part)
	sh.done.Done()
}

// peScratch is one PE worker's private scratch, handed to every pair it
// runs: the t-length block a threshold pass draws its noise and builds
// its pre-threshold values in. It is allocated by the first pair that
// thresholds, so a worker that only sweeps colored pairs never holds
// one, and it is sized by the tile, not the pair count, so a job's
// scratch stays width·t however many pairs it has.
type peScratch struct {
	buf []float64
}

func (w *peScratch) block(t int) []float64 {
	if len(w.buf) < t {
		w.buf = make([]float64, t)
	}
	return w.buf[:t]
}

// parallel runs f(part) for every part in [0, parts) and returns once
// all are done. Parts 1.. go to idle workers through the shard queue
// when it has room; the caller runs part 0 and then drains the queue
// itself, so a sweep on a pool whose workers are all busy with other
// pairs runs inline instead of waiting — no shard can deadlock the pool.
func (p *pePool) parallel(parts int, f func(part int)) {
	if parts <= 1 {
		if parts == 1 {
			f(0)
		}
		return
	}
	var done sync.WaitGroup
	done.Add(parts - 1)
	for part := 1; part < parts; part++ {
		sh := peShard{f: f, part: part, done: &done}
		select {
		case p.shards <- sh:
		default:
			sh.run()
		}
	}
	f(0)
	for drained := false; !drained; {
		select {
		case sh := <-p.shards:
			sh.run()
		default:
			drained = true
		}
	}
	done.Wait()
}

// lockstep is the one run loop: it starts a pool of width PE workers
// and steps every job through the same global iteration together until
// the iteration budget, a stop, or the target ends the run, then
// finishes every job. Controller phases run job-sequentially (each
// job's selection and load draw only from its own streams, so the order
// is fixed and scheduling-free); local batches are dispatched
// pair-major, so the pool sees every job's work on pair p before any
// job's work on pair p+1. exchange, when non-nil, runs at the end of
// every iteration that did not reach the target — the tempering
// ladder's swap boundary — and reports whether it reached the target
// itself.
//
// Stop semantics: a stop flag or cancelled context on any job marks
// every job stopped; a job reaching the target before the last
// iteration marks every job that did not reach it stopped.
func lockstep(jobs []*jobRun, width int, exchange func(g int) bool) {
	pool := &pePool{
		width: width,
		pairs: make(chan peTask),
		// One parallel call enqueues at most width-1 shards; a full
		// queue only makes later callers run their shards inline.
		shards: make(chan peShard, width),
	}
	for w := 0; w < width; w++ {
		go func() {
			var scratch peScratch
			for {
				select {
				case t, ok := <-pool.pairs:
					if !ok {
						return
					}
					t.j.localPair(t.pi, &scratch)
					pool.round.Done()
				case sh := <-pool.shards:
					sh.run()
				}
			}
		}()
	}
	defer close(pool.pairs)
	defer func() {
		for _, j := range jobs {
			j.finish()
		}
	}()
	for _, j := range jobs {
		j.pool = pool
	}

	nPairs := jobs[0].rc.grid.PairCount()
	selBy := make([][]bool, len(jobs))
	for r := range selBy {
		selBy[r] = make([]bool, nPairs)
	}
	iters := jobs[0].rc.cfg.GlobalIters
	for g := 1; g <= iters; g++ {
		// Portfolio early-stop and caller cancellation, observed at the
		// iteration boundary; a stopped job keeps its best-so-far.
		for _, j := range jobs {
			if j.shouldStop() {
				for _, o := range jobs {
					o.res.Stopped = true
				}
				return
			}
		}

		total := 0
		for r, j := range jobs {
			j.beginIter(g)
			sel := selBy[r]
			clear(sel)
			for _, pi := range j.selected {
				sel[pi] = true
			}
			total += len(j.selected)
		}
		pool.round.Add(total)
		for pi := 0; pi < nPairs; pi++ {
			for r, j := range jobs {
				if selBy[r][pi] {
					pool.pairs <- peTask{j: j, pi: pi}
				}
			}
		}
		pool.round.Wait()

		reached := false
		for _, j := range jobs {
			if j.endIter(g) {
				reached = true
			}
		}
		if !reached && exchange != nil {
			reached = exchange(g)
		}
		if reached {
			if g < iters {
				for _, j := range jobs {
					if !j.res.ReachedTarget {
						j.res.Stopped = true
					}
				}
			}
			return
		}
	}
}
