package core

import (
	"math"
	"strings"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/ising"
)

// Satellite coverage for the batch runtime's edges: SeedRange shapes,
// empty-seed rejection, single-replica aggregation, and error surfacing
// when every replica fails (no panic, no partial aggregate).

func TestSeedRange(t *testing.T) {
	cases := []struct {
		base int64
		n    int
		want []int64
	}{
		{base: 0, n: 0, want: []int64{}},
		{base: 5, n: 1, want: []int64{5}},
		{base: 1, n: 4, want: []int64{1, 2, 3, 4}},
		{base: -3, n: 3, want: []int64{-3, -2, -1}},
		// The last seed may land exactly on MaxInt64 — only going past
		// it is an overflow.
		{base: math.MaxInt64 - 1, n: 2, want: []int64{math.MaxInt64 - 1, math.MaxInt64}},
	}
	for _, c := range cases {
		got, err := SeedRange(c.base, c.n)
		if err != nil {
			t.Fatalf("SeedRange(%d,%d): %v", c.base, c.n, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("SeedRange(%d,%d) length %d, want %d", c.base, c.n, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SeedRange(%d,%d)[%d] = %d, want %d", c.base, c.n, i, got[i], c.want[i])
			}
		}
	}
	// n = 0 must be an empty non-nil slice usable directly by RunBatch's
	// input validation (which rejects it with a clear error, below).
	if s, err := SeedRange(9, 0); err != nil || s == nil {
		t.Fatalf("SeedRange(9, 0) = (%v, %v), want empty non-nil slice", s, err)
	}
}

// TestBatchJobWorkersDefault pins the per-replica PE width a batch
// picks when BatchOptions.JobWorkers is 0 — the batch's worker slots
// divided among the replicas in flight — and that an explicit width
// wins. BatchResult.JobWorkers reports the width the replicas ran with.
func TestBatchJobWorkersDefault(t *testing.T) {
	s, err := NewSolver(raceProblem(t), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		workers, seeds, jobWorkers int
		want                       int
	}{
		{workers: 2, seeds: 1, want: 2},
		{workers: 2, seeds: 4, want: 1},
		{workers: 8, seeds: 3, want: 2},
		{workers: 1, seeds: 1, want: 1},
		{workers: 2, seeds: 1, jobWorkers: 1, want: 1},
		{workers: 2, seeds: 4, jobWorkers: 3, want: 3},
	}
	for _, c := range cases {
		b, err := s.RunBatch(mustSeedRange(1, c.seeds), BatchOptions{Workers: c.workers, JobWorkers: c.jobWorkers})
		if err != nil {
			t.Fatal(err)
		}
		if b.JobWorkers != c.want {
			t.Errorf("RunBatch(%d seeds, Workers %d, JobWorkers %d) ran width %d, want %d",
				c.seeds, c.workers, c.jobWorkers, b.JobWorkers, c.want)
		}
	}
}

// TestSeedRangeOverflow pins the explicit error where the old SeedRange
// silently wrapped past MaxInt64 into the negative seed space,
// duplicating replica streams.
func TestSeedRangeOverflow(t *testing.T) {
	bad := []struct {
		base int64
		n    int
	}{
		{base: math.MaxInt64, n: 2},
		{base: math.MaxInt64 - 1, n: 3},
		{base: 1, n: -1},
	}
	for _, c := range bad {
		if seeds, err := SeedRange(c.base, c.n); err == nil {
			t.Fatalf("SeedRange(%d,%d) = %v, want error", c.base, c.n, seeds)
		}
	}
}

// mustSeedRange is the in-package test shorthand for ranges that cannot
// overflow.
func mustSeedRange(base int64, n int) []int64 {
	seeds, err := SeedRange(base, n)
	if err != nil {
		panic(err)
	}
	return seeds
}

func batchEdgeSolver(t *testing.T) (*Solver, *ising.Model) {
	t.Helper()
	m := ising.FromMaxCut(graph.KGraph(12))
	cfg := DefaultConfig()
	cfg.TileSize = 4
	cfg.GlobalIters = 10
	cfg.Workers = 1
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestRunBatchEmptySeeds(t *testing.T) {
	s, _ := batchEdgeSolver(t)
	for _, seeds := range [][]int64{nil, {}} {
		if _, err := s.RunBatch(seeds, BatchOptions{}); err == nil {
			t.Fatalf("RunBatch(%v) succeeded, want at-least-one-seed error", seeds)
		} else if !strings.Contains(err.Error(), "at least one seed") {
			t.Fatalf("RunBatch(%v) error %q does not explain the empty batch", seeds, err)
		}
	}
}

// A single replica is its own best, median, and mean; its aggregate
// carries its ops verbatim.
func TestRunBatchSingleReplica(t *testing.T) {
	s, _ := batchEdgeSolver(t)
	ref, err := s.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.RunBatch([]int64{42}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if batch.BestIndex != 0 || len(batch.Results) != 1 {
		t.Fatalf("single-replica batch shape wrong: %+v", batch)
	}
	if batch.BestEnergy != ref.BestEnergy || batch.MedianEnergy != ref.BestEnergy || batch.MeanEnergy != ref.BestEnergy {
		t.Fatalf("single-replica aggregate energies %v/%v/%v, want all %v",
			batch.BestEnergy, batch.MedianEnergy, batch.MeanEnergy, ref.BestEnergy)
	}
	if batch.Ops != ref.Ops {
		t.Fatalf("single-replica batch ops diverge from the lone run:\n%v\nvs\n%v", batch.Ops, ref.Ops)
	}
	if batch.SuccessProb != 0 || batch.Succeeded != 0 || batch.Stopped != 0 {
		t.Fatalf("targetless single-replica batch reports success/stop state: %+v", batch)
	}
}

// When every replica fails, RunBatch surfaces the error instead of
// panicking inside aggregation or returning a half-built BatchResult.
// Wrong-length InitialSpins is only detected inside the job body, which
// makes it a convenient always-failing replica.
func TestRunBatchAllReplicasFailed(t *testing.T) {
	s, _ := batchEdgeSolver(t)
	broken, err := s.WithRuntime(func(c *Config) { c.InitialSpins = []int8{1, -1} })
	if err != nil {
		t.Fatal(err)
	}
	batch, err := broken.RunBatch(mustSeedRange(1, 3), BatchOptions{Workers: 2})
	if err == nil {
		t.Fatalf("all-failing batch returned no error (result %+v)", batch)
	}
	if batch != nil {
		t.Fatalf("failed batch returned a partial aggregate: %+v", batch)
	}
	if !strings.Contains(err.Error(), "initial spins") {
		t.Fatalf("error %q does not name the per-replica failure", err)
	}
}

// aggregate on a lone stopped replica keeps the summary finite and
// consistent — the shape a drained service job produces.
func TestAggregateStoppedReplica(t *testing.T) {
	s, m := batchEdgeSolver(t)
	r, err := s.cancelledResult(8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stopped || r.GlobalItersRun != 0 {
		t.Fatalf("cancelledResult not a zero-iteration stopped result: %+v", r)
	}
	b := aggregate([]*Result{r})
	if b.Stopped != 1 || b.BestIndex != 0 {
		t.Fatalf("aggregate of stopped replica: %+v", b)
	}
	if math.IsNaN(b.MeanEnergy) || math.IsNaN(b.MedianEnergy) {
		t.Fatalf("aggregate produced NaN summaries: %+v", b)
	}
	if got := m.Energy(r.BestSpins); got != b.BestEnergy {
		t.Fatalf("stopped aggregate energy %v does not match spins (%v)", b.BestEnergy, got)
	}
}
