// Command sophied is the SOPHIE solver daemon: a job-queue service
// that accepts max-cut and typed problem jobs over an HTTP JSON API,
// executes them on a bounded worker pool through the context-aware
// batch runtime, and reports results, lifecycle state, and service
// metrics.
//
// Usage:
//
//	sophied -addr 127.0.0.1:8080 -workers 4 -queue 128
//	curl -X POST localhost:8080/v1/jobs -d '{"preset":"K100","replicas":4,"seed":7}'
//	curl localhost:8080/v1/jobs/j00000001
//
// On SIGINT/SIGTERM the daemon stops admission (503 + draining
// /healthz) and drains in-flight jobs to completion (bounded by
// -drain-timeout, after which they are force-cancelled at their next
// global-iteration boundary). Jobs still queued are cancelled, and
// their IDs are printed as dropped, or as kept for replay under -wal.
//
// With -wal DIR the queue is durable — the one way jobs survive a
// restart: every accepted job is fsync'd to a write-ahead log before
// its 202, and a restart over the same directory replays queued and
// interrupted jobs back into the queue — a kill -9 loses nothing. -tenant-rate/-tenant-burst/-tenant-share
// turn on per-tenant fair admission keyed by the X-Tenant header, and
// GET /v1/jobs/{id}/events streams live progress as server-sent
// events:
//
//	sophied -addr 127.0.0.1:8080 -wal /var/lib/sophied/wal
//	curl -N localhost:8080/v1/jobs/j00000001/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sophie/internal/service"
	"sophie/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sophied:", err)
		os.Exit(1)
	}
}

// run is the daemon body; ctx cancellation triggers graceful shutdown.
// When ready is non-nil the bound listen address is sent on it once the
// server is accepting — the hook the tests use to find a :0 port.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("sophied", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		queueCap       = fs.Int("queue", 64, "admission queue capacity (full queue rejects with 429)")
		workers        = fs.Int("workers", 1, "concurrent job executors")
		resultTTL      = fs.Duration("result-ttl", 15*time.Minute, "how long finished jobs stay queryable")
		defaultTimeout = fs.Duration("default-timeout", 0, "timeout for jobs that set none (0 = unbounded)")
		maxReplicas    = fs.Int("max-replicas", 64, "per-job replica cap")
		problemDir     = fs.String("problem-dir", "", "root directory for graph_file submissions (empty disables them)")
		cacheSize      = fs.Int("cache", 8, "preprocessed solvers kept in the LRU cache")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before force-cancelling")
		walDir         = fs.String("wal", "", "job write-ahead log directory; enables crash recovery (empty = memory-only queue)")
		tenantRate     = fs.Float64("tenant-rate", 0, "per-tenant sustained submissions/second (0 disables rate limiting)")
		tenantBurst    = fs.Int("tenant-burst", 0, "per-tenant submission burst (0 derives from -tenant-rate)")
		tenantShare    = fs.Float64("tenant-share", 0, "max fraction of the queue one tenant may occupy (0 disables the share cap)")
		sseHeartbeat   = fs.Duration("sse-heartbeat", 15*time.Second, "keepalive period on /v1/jobs/{id}/events streams")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := service.Config{
		QueueCap:        *queueCap,
		Workers:         *workers,
		DefaultTimeout:  *defaultTimeout,
		ResultTTL:       *resultTTL,
		MaxReplicas:     *maxReplicas,
		SolverCacheSize: *cacheSize,
		ProblemDir:      *problemDir,
		Tenant: service.TenantConfig{
			Rate:          *tenantRate,
			Burst:         *tenantBurst,
			MaxQueueShare: *tenantShare,
		},
	}

	// Durable queue: replay the WAL before the workers start, so every
	// recovered job re-enters the queue ahead of any new submission.
	var jlog *wal.Log
	var pending []service.SnapshotJob
	if *walDir != "" {
		var err error
		jlog, pending, err = wal.Open(*walDir, wal.Options{})
		if err != nil {
			return fmt.Errorf("opening WAL: %w", err)
		}
		defer jlog.Close()
		cfg.Journal = jlog
	}

	m := service.NewManager(cfg)
	if len(pending) > 0 {
		restored, err := m.Restore(pending)
		if err != nil {
			// Unresolvable specs come back as queryable failed jobs; the
			// daemon keeps serving.
			fmt.Fprintf(stdout, "sophied: wal replay: %v\n", err)
		}
		fmt.Fprintf(stdout, "sophied: restored %d job(s) from %s\n", restored, *walDir)
	}
	m.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: service.NewServer(m, service.WithHeartbeat(*sseHeartbeat))}
	fmt.Fprintf(stdout, "sophied: listening on %s (%d workers, queue %d)\n", ln.Addr(), *workers, *queueCap)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain. Admission closes first so poll/cancel endpoints
	// keep answering while in-flight jobs wind down; the HTTP listener
	// goes away last.
	fmt.Fprintln(stdout, "sophied: draining")
	m.StopAdmission()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	snap, drainErr := m.Shutdown(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stdout, "sophied: http shutdown: %v\n", err)
	}
	// Join the serve goroutine: srv.Shutdown stops the listener, which
	// makes Serve return http.ErrServerClosed. Draining the channel
	// guarantees no daemon goroutine outlives run; anything else Serve
	// reports is a real serving failure that raced the shutdown.
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stdout, "sophied: serve: %v\n", err)
	}

	if len(snap.Jobs) > 0 {
		ids := make([]string, len(snap.Jobs))
		for i, j := range snap.Jobs {
			ids[i] = j.ID
		}
		fate := "dropped (run with -wal to keep queued jobs across a restart)"
		if jlog != nil {
			fate = "kept in the WAL for replay"
		}
		fmt.Fprintf(stdout, "sophied: %d queued job(s) %s: %s\n", len(ids), fate, strings.Join(ids, " "))
	}
	if drainErr != nil {
		fmt.Fprintln(stdout, "sophied: drain timeout — in-flight jobs force-cancelled at iteration boundaries")
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	fmt.Fprintln(stdout, "sophied: drained cleanly")
	return nil
}
