package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
)

// testServer wires a Manager behind httptest and cleans both up.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	m.Start()
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = m.Shutdown(ctx)
	})
	return srv, m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeInto[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func httpWaitState(t *testing.T, base, id string, s State) JobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			_ = resp.Body.Close()
			t.Fatalf("GET job: status %d", resp.StatusCode)
		}
		v := decodeInto[JobView](t, resp)
		if v.State == s {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s to reach %s", id, s)
	return JobView{}
}

// TestServerEndToEndBitIdentical is the acceptance path: submit over
// HTTP, poll to completion, and check the JSON result is bit-identical
// to a direct core.RunBatch with the same seeds and config.
func TestServerEndToEndBitIdentical(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 2})
	spec := JobSpec{
		Graph: inlineGraph(t, 20),
		Seeds: []int64{11, 12, 13},
		Config: ConfigOverrides{
			TileSize:    intp(10),
			LocalIters:  intp(2),
			GlobalIters: intp(30),
		},
	}
	resp := postJSON(t, srv.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	sub := decodeInto[JobView](t, resp)
	if sub.State != StateQueued && sub.State != StateRunning {
		t.Fatalf("initial state %s", sub.State)
	}
	v := httpWaitState(t, srv.URL, sub.ID, StateDone)
	if v.Result == nil {
		t.Fatal("done job has no result")
	}

	cfg := core.DefaultConfig()
	cfg.TileSize = 10
	cfg.LocalIters = 2
	cfg.GlobalIters = 30
	solver, err := core.NewSolver(ising.FromMaxCut(graph.KGraph(20)), cfg)
	if err != nil {
		t.Fatalf("direct solver: %v", err)
	}
	want, err := solver.RunBatch([]int64{11, 12, 13}, core.BatchOptions{})
	if err != nil {
		t.Fatalf("direct batch: %v", err)
	}
	if v.Result.BestEnergy != want.BestEnergy {
		t.Errorf("best energy over HTTP %v, direct %v", v.Result.BestEnergy, want.BestEnergy)
	}
	if !bytes.Equal(int8Bytes(v.Result.BestSpins), int8Bytes(want.Best().BestSpins)) {
		t.Error("best spins over HTTP differ from direct RunBatch")
	}
	for i, r := range v.Result.Replicas {
		if w := want.Results[i]; r.BestEnergy != w.BestEnergy {
			t.Errorf("replica %d energy over HTTP %v, direct %v", i, r.BestEnergy, w.BestEnergy)
		}
	}
	wantCut := graph.KGraph(20).CutValue(want.Best().BestSpins)
	if v.Result.BestObjective == nil || *v.Result.BestObjective != wantCut {
		t.Errorf("best objective %v, want the cut %v", v.Result.BestObjective, wantCut)
	}
}

// TestServerQueueFull429 checks the backpressure path end to end:
// HTTP 429 with a Retry-After header and a mirrored body hint.
func TestServerQueueFull429(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1, QueueCap: 1})
	first := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", slowSpec(t)))
	httpWaitState(t, srv.URL, first.ID, StateRunning)
	second := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", slowSpec(t)))

	resp := postJSON(t, srv.URL+"/v1/jobs", slowSpec(t))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit status %d, want 429", resp.StatusCode)
	}
	retryHeader := resp.Header.Get("Retry-After")
	if retryHeader == "" {
		t.Error("429 without Retry-After header")
	}
	body := decodeInto[errorBody](t, resp)
	if body.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", body.RetryAfterSeconds)
	}
	if fmt.Sprint(body.RetryAfterSeconds) != retryHeader {
		t.Errorf("header Retry-After %q disagrees with body %d", retryHeader, body.RetryAfterSeconds)
	}
	if !strings.Contains(body.Error, "queue full") {
		t.Errorf("error body %q does not mention the full queue", body.Error)
	}
	for _, id := range []string{first.ID, second.ID} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatalf("cleanup cancel %s: %v", id, err)
		}
	}
}

// TestServerCancelAndNotFound covers DELETE semantics and 404s.
func TestServerCancelAndNotFound(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	sub := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", slowSpec(t)))
	httpWaitState(t, srv.URL, sub.ID, StateRunning)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d, want 200", resp.StatusCode)
	}
	_ = resp.Body.Close()
	httpWaitState(t, srv.URL, sub.ID, StateCancelled)

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/j99999999"},
		{http.MethodDelete, "/v1/jobs/j99999999"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
		_ = resp.Body.Close()
	}
}

// TestServerBadRequests checks spec validation and strict JSON decoding
// both map to 400.
func TestServerBadRequests(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"unknown field": `{"graph": "x", "bogus_field": 1}`,
		"not json":      `{{{`,
		"bad spec":      `{"preset": "G999"}`,
		"no source":     `{}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		eb := decodeInto[errorBody](t, resp)
		if eb.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}
}

// TestServerHealthzAndMetrics exercises the observability endpoints
// through a full job lifecycle.
func TestServerHealthzAndMetrics(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1})
	sub := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", fastSpec(t)))
	httpWaitState(t, srv.URL, sub.ID, StateDone)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	hz := decodeInto[struct {
		Status string `json:"status"`
	}](t, resp)
	if hz.Status != "ok" {
		t.Errorf("healthz status %q, want ok", hz.Status)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	st := decodeInto[Stats](t, resp)
	if st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("metrics submitted/completed = %d/%d, want 1/1", st.Submitted, st.Completed)
	}
	if st.Ops.LocalMVM1b == 0 {
		t.Error("merged op counts empty after a completed job")
	}
	if st.Exec.Count != 1 {
		t.Errorf("exec histogram count %d, want 1", st.Exec.Count)
	}
	if st.QueueWait.Count != 1 {
		t.Errorf("queue wait histogram count %d, want 1", st.QueueWait.Count)
	}

	// List strips result payloads.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	list := decodeInto[struct {
		Jobs []JobView `json:"jobs"`
	}](t, resp)
	if len(list.Jobs) != 1 {
		t.Fatalf("list has %d jobs, want 1", len(list.Jobs))
	}
	if list.Jobs[0].Result != nil {
		t.Error("list should strip result payloads")
	}

	// Draining flips readiness to 503 "draining" (load balancers must
	// route away), while liveness stays 200 (the pod is fine).
	m.StopAdmission()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz draining: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
	}
	hz = decodeInto[struct {
		Status string `json:"status"`
	}](t, resp)
	if hz.Status != "draining" {
		t.Errorf("healthz status %q after StopAdmission, want draining", hz.Status)
	}
	resp, err = http.Get(srv.URL + "/livez")
	if err != nil {
		t.Fatalf("GET /livez draining: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining livez status %d, want 200", resp.StatusCode)
	}
	lz := decodeInto[struct {
		Status string `json:"status"`
	}](t, resp)
	if lz.Status != "alive" {
		t.Errorf("livez status %q, want alive", lz.Status)
	}
}

// TestServerHealthzTransition pins the readiness status-code flip:
// 200 while admitting, 503 the moment a drain begins.
func TestServerHealthzTransition(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1})
	get := func() int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", code)
	}
	m.StopAdmission()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after StopAdmission: %d, want 503", code)
	}
}

// TestServerDraining503RetryAfter: a draining submit is a backpressure
// rejection like any other — it must carry the Retry-After header and
// the mirrored body field, matching the 429 contract.
func TestServerDraining503RetryAfter(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1})
	m.StopAdmission()
	resp := postJSON(t, srv.URL+"/v1/jobs", fastSpec(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d, want 503", resp.StatusCode)
	}
	retryHeader := resp.Header.Get("Retry-After")
	if retryHeader == "" {
		t.Error("503 without Retry-After header")
	}
	body := decodeInto[errorBody](t, resp)
	if body.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", body.RetryAfterSeconds)
	}
	if fmt.Sprint(body.RetryAfterSeconds) != retryHeader {
		t.Errorf("header Retry-After %q disagrees with body %d", retryHeader, body.RetryAfterSeconds)
	}
	if !strings.Contains(body.Error, "draining") {
		t.Errorf("error body %q does not mention draining", body.Error)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes a text/event-stream body until the stream ends or
// maxEvents arrive.
func readSSE(t *testing.T, body io.Reader, maxEvents int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if len(events) >= maxEvents {
					return events
				}
			}
		}
	}
	return events
}

// TestServerSSEStream subscribes to a running job's event stream and
// checks the full shape: an initial state event, progress events whose
// best_energy is monotone nonincreasing (the reducer's fold is a min),
// and a final result event carrying the terminal view, after which the
// stream closes.
func TestServerSSEStream(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1})
	// Park a blocker on the single worker so the target job stays queued
	// until the subscription is attached — every progress event of the
	// target is then observable, race-free.
	blocker := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", slowSpec(t)))
	httpWaitState(t, srv.URL, blocker.ID, StateRunning)
	spec := fastSpec(t)
	spec.Config.GlobalIters = intp(400)
	sub := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", spec))

	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("releasing blocker: %v", err)
	}

	events := readSSE(t, resp.Body, 10_000)
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want state + result at least", len(events))
	}
	if events[0].event != "state" {
		t.Fatalf("first event %q, want state", events[0].event)
	}
	last := events[len(events)-1]
	if last.event != "result" {
		t.Fatalf("last event %q, want result", last.event)
	}
	var final JobView
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("result event state %s (result nil: %v), want done with result", final.State, final.Result == nil)
	}

	prev := 0.0
	sawProgress := false
	for _, ev := range events[1 : len(events)-1] {
		if ev.event != "progress" {
			continue
		}
		var p struct {
			BestEnergy float64 `json:"best_energy"`
		}
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress payload %q: %v", ev.data, err)
		}
		if sawProgress && p.BestEnergy > prev {
			t.Errorf("best_energy regressed %v -> %v; the reducer fold must be monotone", prev, p.BestEnergy)
		}
		prev = p.BestEnergy
		sawProgress = true
	}
	if !sawProgress {
		t.Error("stream carried no progress events for a multi-iteration job")
	}
	if final.Result.BestEnergy > prev {
		t.Errorf("final best %v worse than last streamed progress %v", final.Result.BestEnergy, prev)
	}
}

// TestServerSSETerminalJob: subscribing to an already-finished job must
// immediately deliver state + result and end the stream — no hang, no
// heartbeat wait.
func TestServerSSETerminalJob(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	sub := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", fastSpec(t)))
	httpWaitState(t, srv.URL, sub.ID, StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	events := readSSE(t, resp.Body, 10)
	if len(events) != 2 || events[0].event != "state" || events[1].event != "result" {
		t.Fatalf("terminal-job stream = %+v, want exactly [state, result]", events)
	}

	// Unknown job: 404, not a stream.
	resp404, err := http.Get(srv.URL + "/v1/jobs/j99999999/events")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("events on unknown job: status %d, want 404", resp404.StatusCode)
	}
}

// TestServerTenantRejections drives both tenant gates over HTTP: the
// token bucket maps to 429 with the bucket's own retry hint, the
// queue-share cap to 429 with the service hint, and the default tenant
// label lands in the Prometheus exposition.
func TestServerTenantRejections(t *testing.T) {
	srv, m := testServer(t, Config{
		Workers:  1,
		QueueCap: 4,
		Tenant:   TenantConfig{Rate: 0.01, Burst: 1, MaxQueueShare: 0.25},
	})
	submit := func(tenant string) *http.Response {
		t.Helper()
		buf, err := json.Marshal(slowSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("submit as %q: %v", tenant, err)
		}
		return resp
	}

	// Burst 1: the first submission passes, the second trips the bucket.
	first := submit("alice")
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d, want 202", first.StatusCode)
	}
	v := decodeInto[JobView](t, first)
	if v.Tenant != "alice" {
		t.Errorf("accepted job tenant %q, want alice", v.Tenant)
	}
	second := submit("alice")
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit status %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("rate-limited 429 without Retry-After")
	}
	body := decodeInto[errorBody](t, second)
	if !strings.Contains(body.Error, "rate limit") || body.RetryAfterSeconds < 1 {
		t.Errorf("rate-limit body = %+v", body)
	}

	// A different tenant is unaffected (fairness): bob's bucket is his own.
	third := submit("bob")
	if third.StatusCode != http.StatusAccepted {
		t.Fatalf("bob's submit status %d, want 202", third.StatusCode)
	}
	bobV := decodeInto[JobView](t, third)

	// Invalid tenant names are 400s.
	bad := submit("sneaky tenant!")
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tenant status %d, want 400", bad.StatusCode)
	}
	_ = bad.Body.Close()

	// Tenant series appear on the exposition with validated labels.
	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	var promBody bytes.Buffer
	if _, err := promBody.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	for _, want := range []string{
		`sophied_tenant_jobs_submitted_total{tenant="alice"} 1`,
		`sophied_tenant_jobs_rejected_total{tenant="alice",reason="rate"} 1`,
		`sophied_tenant_jobs_submitted_total{tenant="bob"} 1`,
	} {
		if !strings.Contains(promBody.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	for _, id := range []string{v.ID, bobV.ID} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatalf("cleanup cancel: %v", err)
		}
	}
}

// TestServerJobProgress watches a long-running job through GET
// /v1/jobs/{id}: while it runs, the view carries a live progress block
// reduced from the execution trace (iteration, best energy, replica
// counts); once terminal, progress disappears in favor of the result.
func TestServerJobProgress(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	sub := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", slowSpec(t)))

	var seen JobView
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for live progress")
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		seen = decodeInto[JobView](t, resp)
		if seen.State == StateRunning && seen.Progress != nil && seen.Progress.GlobalIter >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	p := seen.Progress
	if p.RunsStarted < 1 {
		t.Errorf("progress runs_started = %d, want >= 1", p.RunsStarted)
	}
	if p.Events == 0 {
		t.Error("progress observed no events")
	}
	if p.BestEnergy >= 0 {
		// K16 under the max-cut mapping always finds a negative energy.
		t.Errorf("progress best_energy = %v, want < 0", p.BestEnergy)
	}
	if p.ElapsedS <= 0 {
		t.Errorf("progress elapsed_s = %v, want > 0", p.ElapsedS)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	_ = resp.Body.Close()
	done := httpWaitState(t, srv.URL, sub.ID, StateCancelled)
	if done.Progress != nil {
		t.Error("terminal job still reports progress")
	}
}

// TestServerMetricsFormatNegotiation checks /metrics dual formats: JSON
// by default, Prometheus text on ?format=prom or Accept: text/plain,
// and ?format=json as an explicit override.
func TestServerMetricsFormatNegotiation(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	sub := decodeInto[JobView](t, postJSON(t, srv.URL+"/v1/jobs", fastSpec(t)))
	httpWaitState(t, srv.URL, sub.ID, StateDone)

	get := func(url, accept string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("reading body: %v", err)
		}
		_ = resp.Body.Close()
		return resp, buf.String()
	}

	// Default: JSON.
	resp, body := get(srv.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type %q, want application/json", ct)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("default /metrics not JSON: %v", err)
	}
	if st.Completed != 1 {
		t.Errorf("JSON stats completed = %d, want 1", st.Completed)
	}

	// ?format=prom and Accept: text/plain both select the exposition.
	for _, c := range []struct{ url, accept string }{
		{srv.URL + "/metrics?format=prom", ""},
		{srv.URL + "/metrics", "text/plain"},
	} {
		resp, body = get(c.url, c.accept)
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s accept=%q: Content-Type %q", c.url, c.accept, ct)
		}
		for _, want := range []string{
			"# TYPE sophied_jobs_completed_total counter",
			"sophied_jobs_completed_total 1",
			"# TYPE sophied_exec_seconds histogram",
			`sophied_exec_seconds_bucket{le="+Inf"} 1`,
			"sophied_ops_local_mvm_1b_total",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s accept=%q: exposition missing %q:\n%s", c.url, c.accept, want, body)
			}
		}
	}

	// Explicit ?format=json wins even against a text/plain Accept.
	resp, body = get(srv.URL+"/metrics?format=json", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json Content-Type %q", ct)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("format=json body not JSON: %v", err)
	}
}

// TestServerConcurrentSubmissions hammers the API from several clients
// at once — primarily a -race exercise over the full stack.
func TestServerConcurrentSubmissions(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 4, QueueCap: 64})
	const clients = 8
	base := fastSpec(t)
	type outcome struct {
		id  string
		err error
	}
	results := make(chan outcome, clients)
	// No t.Fatal inside the goroutines: report through the channel.
	for c := 0; c < clients; c++ {
		go func(c int) {
			spec := base
			spec.Seed = int64(100 + c)
			buf, err := json.Marshal(spec)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != http.StatusAccepted {
				results <- outcome{err: fmt.Errorf("client %d: status %d", c, resp.StatusCode)}
				return
			}
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				results <- outcome{err: fmt.Errorf("client %d: decode: %v", c, err)}
				return
			}
			results <- outcome{id: v.ID}
		}(c)
	}
	var submitted []string
	for c := 0; c < clients; c++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		submitted = append(submitted, o.id)
	}
	for _, id := range submitted {
		v := httpWaitState(t, srv.URL, id, StateDone)
		if v.Result == nil {
			t.Errorf("job %s done without result", id)
		}
	}
}
