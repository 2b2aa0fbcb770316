package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
)

func intp(v int) *int         { return &v }
func f64p(v float64) *float64 { return &v }
func strp(v string) *string   { return &v }

// inlineGraph serializes a complete graph K_n to GSET text for inline
// submission.
func inlineGraph(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, graph.KGraph(n)); err != nil {
		t.Fatalf("serializing K%d: %v", n, err)
	}
	return buf.String()
}

// fastSpec is a job that completes in well under a second.
func fastSpec(t *testing.T) JobSpec {
	return JobSpec{
		Graph:    inlineGraph(t, 16),
		Replicas: 2,
		Seed:     3,
		Config: ConfigOverrides{
			TileSize:    intp(8),
			LocalIters:  intp(2),
			GlobalIters: intp(15),
		},
	}
}

// slowSpec is a job that runs long enough to be observed in flight but
// stops promptly at a global-iteration boundary when cancelled.
func slowSpec(t *testing.T) JobSpec {
	return JobSpec{
		Graph:    inlineGraph(t, 16),
		Replicas: 1,
		Seed:     5,
		Config: ConfigOverrides{
			TileSize:    intp(8),
			LocalIters:  intp(1),
			GlobalIters: intp(50_000_000),
		},
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	m.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = m.Shutdown(ctx)
	})
	return m
}

func waitFor(t *testing.T, m *Manager, id string, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if pred(v) {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting on job %s", id)
	return JobView{}
}

func waitState(t *testing.T, m *Manager, id string, s State) JobView {
	t.Helper()
	return waitFor(t, m, id, func(v JobView) bool { return v.State == s })
}

// TestJobBitIdenticalToDirectRunBatch is the determinism contract: a
// job that runs to completion through the whole service stack (queue,
// worker, solver cache, WithRuntime) must return results bit-identical
// to a direct core.RunBatch with the same problem, config, and seeds.
func TestJobBitIdenticalToDirectRunBatch(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	spec := JobSpec{
		Graph:    inlineGraph(t, 24),
		Replicas: 3,
		Seed:     7,
		Config: ConfigOverrides{
			TileSize:    intp(8),
			LocalIters:  intp(3),
			GlobalIters: intp(25),
			Phi:         f64p(0.15),
		},
	}
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v = waitState(t, m, v.ID, StateDone)
	if v.Result == nil {
		t.Fatal("done job has no result")
	}
	if v.TimedOut {
		t.Fatal("unexpected timed_out on an unbounded job")
	}

	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.TileSize = 8
	cfg.LocalIters = 3
	cfg.GlobalIters = 25
	cfg.Phi = 0.15
	solver, err := core.NewSolver(ising.FromMaxCut(graph.KGraph(24)), cfg)
	if err != nil {
		t.Fatalf("direct solver: %v", err)
	}
	wantSeeds, err := core.SeedRange(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.RunBatch(wantSeeds, core.BatchOptions{})
	if err != nil {
		t.Fatalf("direct batch: %v", err)
	}

	if v.Result.BestEnergy != want.BestEnergy {
		t.Errorf("best energy: service %v, direct %v", v.Result.BestEnergy, want.BestEnergy)
	}
	if v.Result.BestIndex != want.BestIndex {
		t.Errorf("best index: service %d, direct %d", v.Result.BestIndex, want.BestIndex)
	}
	if !bytes.Equal(int8Bytes(v.Result.BestSpins), int8Bytes(want.Best().BestSpins)) {
		t.Error("best spins differ from direct RunBatch")
	}
	if len(v.Result.Replicas) != len(want.Results) {
		t.Fatalf("replica count: service %d, direct %d", len(v.Result.Replicas), len(want.Results))
	}
	for i, r := range v.Result.Replicas {
		w := want.Results[i]
		if r.BestEnergy != w.BestEnergy || r.BestGlobalIter != w.BestGlobalIter || r.GlobalItersRun != w.GlobalItersRun {
			t.Errorf("replica %d: service (%v, %d, %d), direct (%v, %d, %d)",
				i, r.BestEnergy, r.BestGlobalIter, r.GlobalItersRun,
				w.BestEnergy, w.BestGlobalIter, w.GlobalItersRun)
		}
	}
	if v.Result.Ops != want.Ops {
		t.Errorf("op counts: service %+v, direct %+v", v.Result.Ops, want.Ops)
	}
	if wantCut := graph.KGraph(24).CutValue(want.Best().BestSpins); v.Result.BestObjective == nil || *v.Result.BestObjective != wantCut {
		t.Errorf("best objective %v, want the cut %v", v.Result.BestObjective, wantCut)
	}
}

func int8Bytes(s []int8) []byte {
	out := make([]byte, len(s))
	for i, v := range s {
		out[i] = byte(v)
	}
	return out
}

// TestQueueFullBackpressure fills a 1-slot queue behind a busy worker
// and checks the third submission is rejected with ErrQueueFull.
func TestQueueFullBackpressure(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 1})

	running, err := m.Submit(slowSpec(t))
	if err != nil {
		t.Fatalf("submit running job: %v", err)
	}
	waitState(t, m, running.ID, StateRunning)

	queued, err := m.Submit(slowSpec(t))
	if err != nil {
		t.Fatalf("submit queued job: %v", err)
	}

	if _, err := m.Submit(slowSpec(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit to full queue: got %v, want ErrQueueFull", err)
	}
	if hint := m.RetryAfterHint(); hint < 1 || hint > 60 {
		t.Errorf("retry-after hint %d outside [1, 60]", hint)
	}
	st := m.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}
	if st.QueueDepth != 1 {
		t.Errorf("queue depth = %d, want 1", st.QueueDepth)
	}

	// Cancelling the queued job frees a slot immediately.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := m.Submit(fastSpec(t)); err != nil {
		t.Fatalf("submit after freeing a slot: %v", err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
}

// TestCancelRunningJob cancels an in-flight job and checks it lands in
// cancelled with its best-so-far partial result attached.
func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	v, err := m.Submit(slowSpec(t))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, m, v.ID, StateRunning)
	cv, err := m.Cancel(v.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if !cv.CancelRequested {
		t.Error("cancel_requested not set after Cancel")
	}
	v = waitState(t, m, v.ID, StateCancelled)
	if v.Result == nil {
		t.Fatal("cancelled running job should keep its partial result")
	}
	if v.Result.Stopped == 0 {
		t.Error("partial result should report stopped replicas")
	}
	if n := len(v.Result.BestSpins); n != 16 {
		t.Errorf("partial best spins length %d, want 16", n)
	}
	// Cancelling a terminal job is an idempotent no-op.
	again, err := m.Cancel(v.ID)
	if err != nil || again.State != StateCancelled {
		t.Errorf("second cancel: state %s err %v", again.State, err)
	}
	st := m.Stats()
	if st.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", st.Cancelled)
	}
}

// TestJobTimeout bounds a long job with timeout_ms and checks it
// completes as done + timed_out with stopped replicas.
func TestJobTimeout(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	spec := slowSpec(t)
	spec.TimeoutMS = 80
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v = waitFor(t, m, v.ID, func(v JobView) bool { return v.State.Terminal() })
	if v.State != StateDone {
		t.Fatalf("state %s, want done (err %q)", v.State, v.Error)
	}
	if !v.TimedOut {
		t.Error("timed_out not set on a deadline-bounded job")
	}
	if v.Result == nil || v.Result.Stopped == 0 {
		t.Fatal("timed-out job should keep a partial result with stopped replicas")
	}
	if st := m.Stats(); st.TimedOut != 1 {
		t.Errorf("timed_out counter = %d, want 1", st.TimedOut)
	}
}

// TestShutdownDrainsInFlight starts one in-flight and one queued job,
// then shuts down: the in-flight job must finish to a valid result, the
// queued one must be snapshotted and cancelled, and later submissions
// must see ErrDraining.
func TestShutdownDrainsInFlight(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.Start()

	inflight := JobSpec{
		Graph:    inlineGraph(t, 16),
		Replicas: 1,
		Seed:     9,
		Config: ConfigOverrides{
			TileSize:    intp(8),
			LocalIters:  intp(1),
			GlobalIters: intp(4000),
		},
	}
	a, err := m.Submit(inflight)
	if err != nil {
		t.Fatalf("submit in-flight: %v", err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, err := m.Submit(fastSpec(t))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	snap, err := m.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != b.ID {
		t.Fatalf("snapshot = %+v, want exactly the queued job %s", snap.Jobs, b.ID)
	}
	if snap.Jobs[0].Spec.Graph != fastSpec(t).Graph {
		t.Error("snapshot spec does not round-trip the submission")
	}

	av, err := m.Get(a.ID)
	if err != nil {
		t.Fatalf("get drained job: %v", err)
	}
	if av.State != StateDone || av.Result == nil {
		t.Fatalf("drained in-flight job: state %s result %v, want done with result", av.State, av.Result != nil)
	}
	model := ising.FromMaxCut(graph.KGraph(16))
	if got := model.Energy(av.Result.BestSpins); got != av.Result.BestEnergy {
		t.Errorf("drained result inconsistent: energy(spins) %v != best_energy %v", got, av.Result.BestEnergy)
	}
	bv, err := m.Get(b.ID)
	if err != nil {
		t.Fatalf("get snapshotted job: %v", err)
	}
	if bv.State != StateCancelled {
		t.Errorf("snapshotted job state %s, want cancelled", bv.State)
	}
	if _, err := m.Submit(fastSpec(t)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown: got %v, want ErrDraining", err)
	}
}

// TestShutdownForceCancel shuts down under a deadline shorter than the
// in-flight job: the job is force-cancelled at an iteration boundary
// and still records a valid partial result.
func TestShutdownForceCancel(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.Start()
	v, err := m.Submit(slowSpec(t))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, m, v.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	snap, err := m.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown error = %v, want DeadlineExceeded", err)
	}
	if len(snap.Jobs) != 0 {
		t.Errorf("snapshot has %d jobs, want 0 (nothing was queued)", len(snap.Jobs))
	}
	fv, err := m.Get(v.ID)
	if err != nil {
		t.Fatalf("get force-drained job: %v", err)
	}
	if fv.State != StateDone || fv.Result == nil || fv.Result.Stopped != 1 {
		t.Fatalf("force-drained job: state %s, result %v — want done with 1 stopped replica", fv.State, fv.Result)
	}
}

// TestShutdownJoinsJanitor pins the goroutine-ownership fix flagged by
// sophielint's goleak check: Shutdown must wait on m.bg — the janitor's
// lifecycle group — before returning, so no Manager goroutine outlives
// it. The test impersonates a second background goroutine by holding
// the group open: a Shutdown that returns while the group is non-empty
// has lost the join.
func TestShutdownJoinsJanitor(t *testing.T) {
	m := NewManager(Config{Workers: 1, JanitorEvery: time.Hour})
	m.Start()
	m.bg.Add(1) // held open until the test releases it below

	returned := make(chan struct{})
	go func() {
		defer close(returned)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	select {
	case <-returned:
		t.Fatal("Shutdown returned while a background goroutine was still registered in m.bg")
	case <-time.After(100 * time.Millisecond):
	}
	m.bg.Done()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the background group emptied")
	}
}

// TestSweepEvictsExpiredResults drives the TTL sweep directly.
func TestSweepEvictsExpiredResults(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, ResultTTL: time.Minute})
	v, err := m.Submit(fastSpec(t))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, m, v.ID, StateDone)

	m.sweep(time.Now())
	if _, err := m.Get(v.ID); err != nil {
		t.Fatalf("fresh result swept too early: %v", err)
	}
	m.sweep(time.Now().Add(2 * time.Minute))
	if _, err := m.Get(v.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired result: got %v, want ErrNotFound", err)
	}
}

// TestSolverCacheReuse submits the same problem twice with different
// runtime knobs and checks the second hits the preprocessed cache.
func TestSolverCacheReuse(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	a := fastSpec(t)
	av, err := m.Submit(a)
	if err != nil {
		t.Fatalf("submit first: %v", err)
	}
	waitState(t, m, av.ID, StateDone)

	b := fastSpec(t)
	b.Config.Phi = f64p(0.3) // runtime-only change: same solver key
	bv, err := m.Submit(b)
	if err != nil {
		t.Fatalf("submit second: %v", err)
	}
	waitState(t, m, bv.ID, StateDone)

	cs := m.Stats().SolverCache
	if cs.Misses != 1 || cs.Hits != 1 || cs.Entries != 1 {
		t.Errorf("cache stats %+v, want 1 miss, 1 hit, 1 entry", cs)
	}

	c := fastSpec(t)
	c.Config.TileSize = intp(16) // preprocessing change: new solver key
	cv, err := m.Submit(c)
	if err != nil {
		t.Fatalf("submit third: %v", err)
	}
	waitState(t, m, cv.ID, StateDone)
	if cs := m.Stats().SolverCache; cs.Misses != 2 || cs.Entries != 2 {
		t.Errorf("cache stats after tile change %+v, want 2 misses, 2 entries", cs)
	}
}

// TestResolveSpecRejections exercises admission-time validation: every
// bad spec must wrap ErrBadSpec (HTTP 400), not fail after queueing.
func TestResolveSpecRejections(t *testing.T) {
	m := NewManager(Config{MaxReplicas: 2})
	k4 := inlineGraph(t, 4)
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no source", JobSpec{}},
		{"two sources", JobSpec{Graph: k4, Preset: "K100"}},
		{"unknown preset", JobSpec{Preset: "G999"}},
		{"bad inline graph", JobSpec{Graph: "not a graph"}},
		{"negative replicas", JobSpec{Graph: k4, Replicas: -1}},
		{"too many replicas", JobSpec{Graph: k4, Replicas: 3}},
		{"negative timeout", JobSpec{Graph: k4, TimeoutMS: -5}},
		{"early stop without target", JobSpec{Graph: k4, EarlyStop: true}},
		{"tempering one replica", JobSpec{Graph: k4, Replicas: 1,
			Tempering: &TemperingSpec{TMin: 0.05, TMax: 0.5}}},
		{"tempering bad ladder", JobSpec{Graph: k4, Replicas: 2,
			Tempering: &TemperingSpec{TMin: 0.5, TMax: 0.05}}},
		{"tempering zero tmin", JobSpec{Graph: k4, Replicas: 2,
			Tempering: &TemperingSpec{TMin: 0, TMax: 0.5}}},
		{"tempering negative period", JobSpec{Graph: k4, Replicas: 2,
			Tempering: &TemperingSpec{TMin: 0.05, TMax: 0.5, ExchangeEvery: -1}}},
		{"tempering with early stop", JobSpec{Graph: k4, Replicas: 2, EarlyStop: true,
			Tempering: &TemperingSpec{TMin: 0.05, TMax: 0.5},
			Config:    ConfigOverrides{TargetEnergy: f64p(-1)}}},
		{"bad tile size", JobSpec{Graph: k4, Config: ConfigOverrides{TileSize: intp(-8)}}},
		{"bad spin update", JobSpec{Graph: k4, Config: ConfigOverrides{SpinUpdate: strp("quantum")}}},
		{"negative workers", JobSpec{Graph: k4, Config: ConfigOverrides{Workers: intp(-1)}}},
		{"file refs disabled", JobSpec{GraphFile: "g1.txt"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Submit(tc.spec); !errors.Is(err, ErrBadSpec) {
				t.Errorf("got %v, want ErrBadSpec", err)
			}
		})
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Errorf("bad specs counted as submissions: %d", st.Submitted)
	}
}

// TestGraphFileSubmission reads a problem from the configured directory
// and rejects escapes from it.
func TestGraphFileSubmission(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/k8.txt", inlineGraph(t, 8)); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Workers: 1, ProblemDir: dir})
	v, err := m.Submit(JobSpec{
		GraphFile: "k8.txt",
		Config:    ConfigOverrides{TileSize: intp(8), LocalIters: intp(2), GlobalIters: intp(10)},
	})
	if err != nil {
		t.Fatalf("submit graph_file: %v", err)
	}
	v = waitState(t, m, v.ID, StateDone)
	if len(v.Result.BestSpins) != 8 {
		t.Errorf("spins length %d, want 8", len(v.Result.BestSpins))
	}
	for _, bad := range []string{"../k8.txt", "/etc/passwd", "missing.txt"} {
		if _, err := m.Submit(JobSpec{GraphFile: bad}); !errors.Is(err, ErrBadSpec) {
			t.Errorf("graph_file %q: got %v, want ErrBadSpec", bad, err)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestTemperingJob runs a tempering-ladder job through the whole
// service stack and checks (a) the result is bit-identical to a direct
// core.RunTempering with the same problem, config, and seeds, (b) the
// exchange statistics surface in the result view, and (c) the manager's
// exchange counters pick them up.
func TestTemperingJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	spec := JobSpec{
		Graph:     inlineGraph(t, 24),
		Replicas:  4,
		Seed:      7,
		Tempering: &TemperingSpec{TMin: 0.05, TMax: 0.5, ExchangeEvery: 5},
		Config: ConfigOverrides{
			TileSize:    intp(8),
			LocalIters:  intp(3),
			GlobalIters: intp(30),
		},
	}
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v = waitState(t, m, v.ID, StateDone)
	if v.Result == nil {
		t.Fatal("done job has no result")
	}
	tv := v.Result.Tempering
	if tv == nil {
		t.Fatal("tempering job result carries no tempering view")
	}
	if len(tv.Phis) != 4 || len(tv.RungEnergies) != 4 {
		t.Fatalf("ladder view sized %d/%d, want 4/4", len(tv.Phis), len(tv.RungEnergies))
	}

	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.TileSize = 8
	cfg.LocalIters = 3
	cfg.GlobalIters = 30
	solver, err := core.NewSolver(ising.FromMaxCut(graph.KGraph(24)), cfg)
	if err != nil {
		t.Fatalf("direct solver: %v", err)
	}
	seeds, err := core.SeedRange(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.RunTempering(seeds, core.TemperingOptions{TMin: 0.05, TMax: 0.5, ExchangeEvery: 5})
	if err != nil {
		t.Fatalf("direct tempering: %v", err)
	}
	if v.Result.BestEnergy != want.BestEnergy {
		t.Errorf("best energy: service %v, direct %v", v.Result.BestEnergy, want.BestEnergy)
	}
	if !bytes.Equal(int8Bytes(v.Result.BestSpins), int8Bytes(want.Best().BestSpins)) {
		t.Error("best spins differ from direct RunTempering")
	}
	ws := want.Tempering
	if tv.Attempted != ws.Attempted || tv.Accepted != ws.Accepted || tv.ExchangeRate != ws.ExchangeRate {
		t.Errorf("exchange stats: service (%d, %d, %v), direct (%d, %d, %v)",
			tv.Attempted, tv.Accepted, tv.ExchangeRate, ws.Attempted, ws.Accepted, ws.ExchangeRate)
	}
	for r := range tv.Phis {
		if tv.Phis[r] != ws.Phis[r] || tv.RungEnergies[r] != ws.RungEnergies[r] {
			t.Errorf("rung %d: service (%v, %v), direct (%v, %v)",
				r, tv.Phis[r], tv.RungEnergies[r], ws.Phis[r], ws.RungEnergies[r])
		}
	}

	st := m.Stats()
	if st.Exchanges != uint64(ws.Attempted) || st.ExchangesAccepted != uint64(ws.Accepted) {
		t.Errorf("manager counters (%d, %d), want (%d, %d)",
			st.Exchanges, st.ExchangesAccepted, ws.Attempted, ws.Accepted)
	}
}
