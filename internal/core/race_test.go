package core

import (
	"math"
	"sync"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/linalg"
	"sophie/internal/opcm"
	"sophie/internal/tiling"
)

// These tests back the repo's two concurrency invariants (DESIGN.md
// "Invariants"): (1) a Solver must be race-free under `go test -race`
// when shared across goroutines with the ideal engine, and (2) results
// must be a pure function of the seed — bit-identical across repeats,
// worker counts, and batch scheduling.

func raceProblem(t testing.TB) *ising.Model {
	t.Helper()
	g, err := graph.Random(64, 320, graph.WeightUnit, 17)
	if err != nil {
		t.Fatal(err)
	}
	return ising.FromMaxCut(g)
}

// requireIdentical asserts two results are bit-identical: spins, the
// full energy trace (compared as float bits, not within a tolerance),
// and every hardware op counter.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.BestSpins) != len(b.BestSpins) {
		t.Fatalf("%s: spin vector lengths differ: %d vs %d", label, len(a.BestSpins), len(b.BestSpins))
	}
	for i := range a.BestSpins {
		if a.BestSpins[i] != b.BestSpins[i] {
			t.Fatalf("%s: spin %d differs: %d vs %d", label, i, a.BestSpins[i], b.BestSpins[i])
		}
	}
	if math.Float64bits(a.BestEnergy) != math.Float64bits(b.BestEnergy) {
		t.Fatalf("%s: BestEnergy bits differ: %v vs %v", label, a.BestEnergy, b.BestEnergy)
	}
	if a.BestGlobalIter != b.BestGlobalIter {
		t.Fatalf("%s: BestGlobalIter %d vs %d", label, a.BestGlobalIter, b.BestGlobalIter)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if math.Float64bits(a.Trace[i]) != math.Float64bits(b.Trace[i]) {
			t.Fatalf("%s: trace[%d] bits differ: %v vs %v", label, i, a.Trace[i], b.Trace[i])
		}
	}
	if a.Ops != b.Ops {
		t.Fatalf("%s: op counts differ:\n%s\nvs\n%s", label, a.Ops.String(), b.Ops.String())
	}
}

// TestDeterminismRegression pins the seed-reproducibility contract at
// its strictest: full traces evaluated every iteration must be
// bit-identical across repeated runs and across worker counts.
func TestDeterminismRegression(t *testing.T) {
	m := raceProblem(t)
	cfg := quickConfig()
	cfg.RecordTrace = true
	cfg.EvalEvery = 1
	cfg.Workers = 8
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 12345
	first, err := s.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "repeat same-seed run", first, second)

	serial, err := s.WithRuntime(func(c *Config) { c.Workers = 1 })
	if err != nil {
		t.Fatal(err)
	}
	single, err := serial.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "workers=8 vs workers=1", first, single)
}

// TestBatchSchedulingIsInvisible checks that batching is pure seed
// bookkeeping: every RunBatch replica must be bit-identical to a plain
// Run of its seed, for any batch worker count and any per-job worker
// count (ideal engine).
func TestBatchSchedulingIsInvisible(t *testing.T) {
	m := raceProblem(t)
	cfg := quickConfig()
	cfg.RecordTrace = true
	cfg.EvalEvery = 1
	cfg.Workers = 1
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const base, jobs = 900, 4
	seeds := mustSeedRange(base, jobs)
	refs := make([]*Result, jobs)
	for j := range seeds {
		r, err := s.Run(seeds[j])
		if err != nil {
			t.Fatal(err)
		}
		refs[j] = r
	}
	for _, opts := range []BatchOptions{
		{Workers: 1},
		{Workers: 4},
		{Workers: 2, JobWorkers: 3},
	} {
		batch, err := s.RunBatch(seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range refs {
			requireIdentical(t, "RunBatch replica vs serial Run", batch.Results[j], refs[j])
		}
	}
	requireSingleSeedBatchIdentical(t, s, seeds[0], refs[0])
}

// requireSingleSeedBatchIdentical checks RunBatch([seed]) ≡ Run(seed)
// under the default per-replica width, both when the batch inherits the
// solver's worker count and when Workers: 2 lets the lone replica spread
// its tile pairs over two PE workers.
func requireSingleSeedBatchIdentical(t *testing.T, s *Solver, seed int64, ref *Result) {
	t.Helper()
	for _, opts := range []BatchOptions{{}, {Workers: 2}} {
		batch, err := s.RunBatch([]int64{seed}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Workers == 2 && batch.JobWorkers != 2 {
			t.Fatalf("one replica on 2 batch workers ran %d PE workers, want 2", batch.JobWorkers)
		}
		requireIdentical(t, "single-seed RunBatch vs Run", batch.Results[0], ref)
	}
}

// TestBatchSchedulingIsInvisibleOnDevice is the same contract on the
// shared opcm device model with read noise enabled — the case the
// pre-session engine could not honor, because concurrent jobs drew from
// one mutex-serialized noise stream in schedule order. Under -race this
// also proves concurrent device-model batches are data-race free.
func TestBatchSchedulingIsInvisibleOnDevice(t *testing.T) {
	m := raceProblem(t)
	cfg := quickConfig()
	cfg.RecordTrace = true
	cfg.EvalEvery = 1
	cfg.Workers = 1
	cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
		params := opcm.DefaultParams()
		params.ReadNoise = 0.02
		return opcm.NewEngine(tiles, 0, params)
	}
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := mustSeedRange(4200, 5)
	refs := make([]*Result, len(seeds))
	for j := range seeds {
		r, err := s.Run(seeds[j])
		if err != nil {
			t.Fatal(err)
		}
		refs[j] = r
	}
	for _, workers := range []int{1, 4} {
		batch, err := s.RunBatch(seeds, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for j := range refs {
			requireIdentical(t, "device RunBatch replica vs serial Run", batch.Results[j], refs[j])
		}
	}
	requireSingleSeedBatchIdentical(t, s, seeds[0], refs[0])
}

// TestConcurrentDeviceRuns hammers plain Run on one shared device-model
// solver from several goroutines — the direct regression test for the
// old "run jobs sequentially for device studies" restriction. The -race
// build must stay silent and every result must match an undisturbed
// reference run.
func TestConcurrentDeviceRuns(t *testing.T) {
	m := raceProblem(t)
	cfg := quickConfig()
	cfg.GlobalIters = 25
	cfg.Workers = 2
	cfg.Engine = func(tiles []*linalg.Matrix) (tiling.Engine, error) {
		params := opcm.DefaultParams()
		params.ReadNoise = 0.05
		return opcm.NewEngine(tiles, 0, params)
	}
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	refs := make([]*Result, goroutines)
	for i := range refs {
		r, err := s.Run(int64(700 + i))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Run(int64(700 + i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireIdentical(t, "concurrent vs sequential device run", results[i], refs[i])
	}
}

// TestConcurrentRunsOnSharedSolver hammers the worker pool: several
// goroutines call Run on one ideal-engine Solver, each itself fanning
// out across workers. The -race build must stay silent, and each
// goroutine's result must match an undisturbed reference run.
func TestConcurrentRunsOnSharedSolver(t *testing.T) {
	m := raceProblem(t)
	cfg := quickConfig()
	cfg.GlobalIters = 30
	cfg.Workers = 4
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	refs := make([]*Result, goroutines)
	for i := range refs {
		r, err := s.Run(int64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Run(int64(100 + i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireIdentical(t, "concurrent vs sequential run", results[i], refs[i])
	}
}

// TestRunBatchUnderRace drives the batch-level parallelism with more
// replicas than slots so the semaphore path is exercised, with the
// portfolio early-stop racing its cancellation flag against running
// replicas.
func TestRunBatchUnderRace(t *testing.T) {
	m := raceProblem(t)
	cfg := quickConfig()
	cfg.GlobalIters = 20
	target := 0.0
	cfg.TargetEnergy = &target
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.RunBatch(mustSeedRange(1, 9), BatchOptions{Workers: 3, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 9 {
		t.Fatalf("%d results, want 9", len(batch.Results))
	}
}
