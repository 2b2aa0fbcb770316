package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/problem"
	"sophie/internal/service"
)

// startDaemon runs the daemon on a random port and returns its base URL
// plus a cancel that triggers graceful shutdown and an errCh carrying
// run's return.
func startDaemon(t *testing.T, extraArgs ...string) (string, context.CancelFunc, chan error) {
	t.Helper()
	return startDaemonOut(t, new(bytes.Buffer), extraArgs...)
}

// startDaemonOut is startDaemon with the daemon's log sent to out. Read
// out only after run has returned on errCh.
func startDaemonOut(t *testing.T, out io.Writer, extraArgs ...string) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { errCh <- run(ctx, args, out, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, errCh
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil, nil
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
		return "", nil, nil
	}
}

func kGraphText(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, graph.KGraph(n)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func submit(t *testing.T, base string, spec map[string]any) service.JobView {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := json.Marshal(resp.Header)
		t.Fatalf("submit status %d (%s)", resp.StatusCode, body)
	}
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollDone(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobView{}
}

// TestDaemonLifecycle boots the daemon, runs one job end to end over
// HTTP, and shuts down cleanly.
func TestDaemonLifecycle(t *testing.T) {
	base, cancel, errCh := startDaemon(t, "-workers", "2")
	v := submit(t, base, map[string]any{
		"graph":    kGraphText(t, 12),
		"replicas": 2,
		"seed":     3,
		"config":   map[string]any{"tile_size": 6, "local_iters": 2, "global_iters": 10},
	})
	v = pollDone(t, base, v.ID)
	if v.State != service.StateDone || v.Result == nil {
		t.Fatalf("job state %s (err %q), want done with result", v.State, v.Error)
	}
	if len(v.Result.BestSpins) != 12 {
		t.Errorf("spins length %d, want 12", len(v.Result.BestSpins))
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %v)", err, resp)
	}
	_ = resp.Body.Close()

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
}

// waitRunning polls until job id is running.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if v.State == service.StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDaemonDrainSnapshot forces a drain with one in-flight job too
// slow for the drain window and one still-queued job, without a WAL:
// run must report the forced drain, and the daemon's log must name the
// queued job as dropped. The drained queue used to go to a -snapshot
// file; that flag is retired (the WAL is the one way to survive a
// restart, TestDaemonWALRecovery) and must now be rejected.
func TestDaemonDrainSnapshot(t *testing.T) {
	var out bytes.Buffer
	base, cancel, errCh := startDaemonOut(t, &out,
		"-workers", "1", "-drain-timeout", "300ms")

	slow := map[string]any{
		"graph": kGraphText(t, 12),
		"config": map[string]any{
			"tile_size": 6, "local_iters": 1, "global_iters": 50000000,
		},
	}
	first := submit(t, base, slow)
	waitRunning(t, base, first.ID)
	queued := submit(t, base, slow)

	cancel()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
			t.Fatalf("forced drain returned %v, want drain-incomplete error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
	want := "sophied: 1 queued job(s) dropped (run with -wal to keep queued jobs across a restart): " + queued.ID + "\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("daemon log does not report the dropped queued job %s:\n%s", queued.ID, out.String())
	}

	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	if err := run(ctx, []string{"-snapshot", filepath.Join(t.TempDir(), "queue.json")}, io.Discard, nil); err == nil {
		t.Fatal("retired -snapshot flag accepted")
	}
}

// TestDaemonWALRecovery restarts the daemon over the same WAL
// directory: a job still queued at shutdown must come back with its
// inline spec intact and run to completion in the second process
// lifetime, with the same best objective as a direct solve, while the
// force-cancelled in-flight job stays terminal.
func TestDaemonWALRecovery(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	var out bytes.Buffer
	base, cancel, errCh := startDaemonOut(t, &out,
		"-workers", "1", "-drain-timeout", "100ms", "-wal", walDir)

	slow := map[string]any{
		"graph": kGraphText(t, 12),
		"config": map[string]any{
			"tile_size": 6, "local_iters": 1, "global_iters": 50000000,
		},
	}
	fast := map[string]any{
		"graph":    kGraphText(t, 12),
		"replicas": 2,
		"seed":     9,
		"config":   map[string]any{"tile_size": 6, "local_iters": 2, "global_iters": 10},
	}
	running := submit(t, base, slow)
	waitRunning(t, base, running.ID)
	queued := submit(t, base, fast)

	// Stop the daemon mid-queue. The running job is force-cancelled at
	// an iteration boundary (drain window far below its runtime) and is
	// journaled terminal; the queued job drains unterminated, which is
	// exactly what makes it replay.
	cancel()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
			t.Fatalf("forced drain returned %v, want drain-incomplete error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
	if want := "sophied: 1 queued job(s) kept in the WAL for replay: " + queued.ID + "\n"; !strings.Contains(out.String(), want) {
		t.Errorf("daemon log does not report the queued job %s as kept:\n%s", queued.ID, out.String())
	}

	// Second lifetime over the same WAL: the queued job replays and
	// completes; the cancelled in-flight job does not resurrect.
	base2, cancel2, errCh2 := startDaemon(t, "-workers", "1", "-wal", walDir)
	v := pollDone(t, base2, queued.ID)
	if v.State != service.StateDone || v.Result == nil {
		t.Fatalf("recovered job state %s (err %q), want done with result", v.State, v.Error)
	}
	if len(v.Result.BestSpins) != 12 {
		t.Errorf("recovered result spins length %d, want 12", len(v.Result.BestSpins))
	}
	if want := directObjective(t, 12, 9, 2); v.Result.BestObjective == nil || *v.Result.BestObjective != want {
		t.Errorf("recovered best_objective %v, want %v from a direct solve", v.Result.BestObjective, want)
	}
	resp, err := http.Get(base2 + "/v1/jobs/" + running.ID)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("force-cancelled job %s answered %d after restart; its terminal record should keep it out of replay", running.ID, resp.StatusCode)
	}

	cancel2()
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second daemon did not exit")
	}
}

// directObjective solves max-cut on K_n with the fast job's config and
// seeds seed..seed+replicas-1 outside the daemon, returning the decoded
// best objective.
func directObjective(t *testing.T, n int, seed int64, replicas int) float64 {
	t.Helper()
	p := &problem.MaxCut{G: graph.KGraph(n)}
	c, err := problem.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.TileSize = 6
	cfg.LocalIters = 2
	cfg.GlobalIters = 10
	solver, err := core.NewSolver(c.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := core.SeedRange(seed, replicas)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := solver.RunBatch(seeds, core.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Decode(batch.Best().BestSpins)
	if err != nil {
		t.Fatal(err)
	}
	return sol.Objective
}

// TestDaemonFlagErrors checks bad flags fail fast.
func TestDaemonFlagErrors(t *testing.T) {
	var out bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-no-such-flag"}, &out, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(ctx, []string{"-addr", "999.999.999.999:0"}, &out, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}
