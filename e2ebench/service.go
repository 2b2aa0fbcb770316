package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"sophie/internal/service"
	"sophie/internal/wal"
)

// sophiedConfig mirrors cmd/sophied's flag defaults, except for how long
// finished jobs stay queryable. sophied keeps every finished job, its
// lowered model included, for -result-ttl (15 minutes); under a closed
// loop that retains thousands of jobs within one run, so the heap would
// grow with run length times throughput. The benchmark reads each
// result from its SSE stream and never queries it again, so a short TTL
// changes no measured path and keeps the heap bounded.
func sophiedConfig() service.Config {
	return service.Config{
		QueueCap:        64,
		Workers:         1,
		ResultTTL:       50 * time.Millisecond,
		JanitorEvery:    50 * time.Millisecond,
		MaxReplicas:     64,
		SolverCacheSize: 8,
	}
}

// sophiedHeartbeat is sophied's default -sse-heartbeat.
const sophiedHeartbeat = 15 * time.Second

// timedJournal wraps the WAL through the service.Journal interface and
// times every append from outside: submitted records wait for their
// fsync, started and terminal records are buffered.
type timedJournal struct {
	log *wal.Log

	mu                 sync.Mutex
	syncNS, bufferedNS int64
	syncN, bufferedN   int64
}

func (t *timedJournal) JobSubmitted(j service.SnapshotJob) error {
	start := time.Now()
	err := t.log.JobSubmitted(j)
	t.note(true, time.Since(start))
	return err
}

func (t *timedJournal) JobStarted(id string) error {
	start := time.Now()
	err := t.log.JobStarted(id)
	t.note(false, time.Since(start))
	return err
}

func (t *timedJournal) JobTerminal(id string, state service.State) error {
	start := time.Now()
	err := t.log.JobTerminal(id, state)
	t.note(false, time.Since(start))
	return err
}

func (t *timedJournal) note(synced bool, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if synced {
		t.syncNS += int64(d)
		t.syncN++
	} else {
		t.bufferedNS += int64(d)
		t.bufferedN++
	}
}

// walStats are the journal's per-append mean times and append counts.
type walStats struct {
	syncS, bufferedS float64
	syncN, bufferedN int64
}

func (t *timedJournal) stats() walStats {
	if t == nil {
		return walStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s walStats
	if t.syncN > 0 {
		s.syncS = float64(t.syncNS) / float64(t.syncN) / 1e9
	}
	if t.bufferedN > 0 {
		s.bufferedS = float64(t.bufferedNS) / float64(t.bufferedN) / 1e9
	}
	s.syncN, s.bufferedN = t.syncN, t.bufferedN
	return s
}

// sophied is an in-process sophied: a Manager with the daemon's
// defaults behind an httptest server, journaled when the workload asks.
type sophied struct {
	m       *service.Manager
	srv     *httptest.Server
	log     *wal.Log
	journal *timedJournal
	client  *http.Client
}

// startSophied boots the service. walDir, when non-empty, enables the
// WAL there; timed wraps it in the timing journal.
func startSophied(walDir string, timed bool) (*sophied, error) {
	cfg := sophiedConfig()
	s := &sophied{}
	if walDir != "" {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		log, pending, err := wal.Open(walDir, wal.Options{})
		if err != nil {
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		if len(pending) > 0 {
			_ = log.Close() // the error path already reports the real failure
			return nil, fmt.Errorf("fresh WAL replayed %d jobs", len(pending))
		}
		s.log = log
		cfg.Journal = log
		if timed {
			s.journal = &timedJournal{log: log}
			cfg.Journal = s.journal
		}
	}
	s.m = service.NewManager(cfg)
	s.m.Start()
	s.srv = httptest.NewServer(service.NewServer(s.m, service.WithHeartbeat(sophiedHeartbeat)))
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return s, nil
}

// stop drains the manager, closes the HTTP server and the WAL.
func (s *sophied) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := s.m.Shutdown(ctx)
	s.client.CloseIdleConnections()
	s.srv.Close()
	if s.log != nil {
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// outcome is one job as a client saw it. It keeps only the compact
// result, not the instance or the spec, so the client's own memory stays
// flat however many jobs a run completes; verification regenerates the
// instance from (client, index).
type outcome struct {
	client, index int
	err           error // refused, failed, timed out or mismatched
	mismatch      bool  // err is a verification mismatch
	view          *jobView
	latency       time.Duration // POST sent → decoded result in hand
	submit        time.Duration // POST sent → 202 read
	queueWait     time.Duration // submitted_at → started_at
	exec          time.Duration // started_at → finished_at
	notify        time.Duration // finished_at → result event read
	resultBytes   int
	// Set by verification, which then drops view.
	quality float64 // decoded objective ÷ planted optimum
	iters95 int     // iterations the first target-reaching replica ran; -1 if none
}

// jobView is the part of the terminal job view (service.JobView) the
// client decodes from the result event: the lifecycle timestamps and
// what verification needs.
type jobView struct {
	ID          string        `json:"id"`
	State       service.State `json:"state"`
	Error       string        `json:"error"`
	TimedOut    bool          `json:"timed_out"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at"`
	FinishedAt  *time.Time    `json:"finished_at"`
	Result      *resultView   `json:"result"`
}

type resultView struct {
	BestEnergy    float64       `json:"best_energy"`
	BestObjective *float64      `json:"best_objective"`
	BestSpins     []int8        `json:"best_spins"`
	Solution      *solutionView `json:"solution"`
	Replicas      []replicaView `json:"replicas"`
}

type solutionView struct {
	Objective  float64 `json:"objective"`
	Assignment struct {
		Bits  []int `json:"bits"`  // maxsat
		Sides []int `json:"sides"` // maxcut
	} `json:"assignment"`
}

type replicaView struct {
	GlobalItersRun int  `json:"global_iters_run"`
	ReachedTarget  bool `json:"reached_target"`
}

// run submits one job and waits for its result event on the SSE
// stream; it never polls.
func (s *sophied) run(ctx context.Context, body []byte) outcome {
	var o outcome
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		o.err = fmt.Errorf("submitting: %w", err)
		return o
	}
	var accepted service.JobView
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	_ = resp.Body.Close() // fully read; a close error changes nothing
	if resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Errorf("submission refused: HTTP %d", resp.StatusCode)
		return o
	}
	if derr != nil {
		o.err = fmt.Errorf("decoding 202: %w", derr)
		return o
	}
	o.submit = time.Since(start)

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.srv.URL+"/v1/jobs/"+accepted.ID+"/events", nil)
	if err != nil {
		o.err = err
		return o
	}
	resp, err = s.client.Do(req)
	if err != nil {
		o.err = fmt.Errorf("subscribing: %w", err)
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("event stream: HTTP %d", resp.StatusCode)
		return o
	}
	data, err := resultEvent(bufio.NewReaderSize(resp.Body, 64<<10))
	if err != nil {
		o.err = err
		return o
	}
	received := time.Now()
	var view jobView
	if err := json.Unmarshal(data, &view); err != nil {
		o.err = fmt.Errorf("decoding result event: %w", err)
		return o
	}
	o.latency = time.Since(start)
	o.resultBytes = len(data)
	o.view = &view
	if view.StartedAt != nil && view.FinishedAt != nil {
		o.queueWait = view.StartedAt.Sub(view.SubmittedAt)
		o.exec = view.FinishedAt.Sub(*view.StartedAt)
		o.notify = received.Sub(*view.FinishedAt)
	}
	switch {
	case view.State != service.StateDone:
		o.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	case view.TimedOut:
		o.err = fmt.Errorf("job %s timed out", view.ID)
	case view.Result == nil:
		o.err = fmt.Errorf("job %s has no result", view.ID)
	}
	return o
}

// resultEvent reads server-sent events until the "result" event and
// returns its data payload.
func resultEvent(r *bufio.Reader) ([]byte, error) {
	event := ""
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("event stream ended before the result event")
			}
			return nil, fmt.Errorf("reading event stream: %w", err)
		}
		text := strings.TrimRight(string(line), "\r\n")
		switch {
		case strings.HasPrefix(text, "event: "):
			event = strings.TrimPrefix(text, "event: ")
		case strings.HasPrefix(text, "data: ") && event == "result":
			return []byte(strings.TrimPrefix(text, "data: ")), nil
		}
	}
}

// heapSampler samples the live Go heap (what the last collection marked
// live, so garbage awaiting collection does not count) at a fixed
// period until stopped.
type heapSampler struct {
	samples []float64 // MiB; written by the sampler only, read after done closes
	stop    chan struct{}
	done    chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}
