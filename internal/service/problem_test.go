package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sophie/internal/problem"
)

// problemSpec builds a JobSpec around a raw problem document with
// test-speed solver settings.
func problemSpec(doc string) JobSpec {
	return JobSpec{
		Problem: json.RawMessage(doc),
		Seeds:   []int64{3, 4},
		Config: ConfigOverrides{
			TileSize:    intp(16),
			LocalIters:  intp(2),
			GlobalIters: intp(20),
		},
	}
}

// TestProblemJobsEndToEnd submits every problem type of the union
// through the manager and checks each completes with a decoded domain
// solution — the ">= 6 problem types end to end" acceptance gate.
func TestProblemJobsEndToEnd(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	docs := map[string]string{
		"qubo":            `{"type":"qubo","n":6,"entries":[[0,1,-2],[2,3,1],[4,4,-1]]}`,
		"maxcut":          `{"type":"maxcut","graph":{"n":6,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,4,1],[4,5,1],[5,0,1]]}}`,
		"maxsat":          `{"type":"maxsat","vars":4,"clauses":[{"lits":[1,2]},{"lits":[-1,3]},{"lits":[2,-3,4],"weight":2}]}`,
		"partition":       `{"type":"partition","graph":{"n":6,"edges":[[0,1,1],[1,2,1],[0,2,1],[3,4,1],[4,5,1],[3,5,1],[2,3,1]]}}`,
		"coloring":        `{"type":"coloring","graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,0,1]]},"colors":2}`,
		"numberpartition": `{"type":"numberpartition","numbers":[4,5,6,7,8]}`,
		"tsp":             `{"type":"tsp","dist":[[0,1,2],[1,0,1],[2,1,0]]}`,
		"hopfield":        `{"type":"hopfield","patterns":[[1,-1,1,-1,1,-1],[1,1,1,-1,-1,-1]],"probe":[1,-1,1,-1,1,1]}`,
	}
	for typ, doc := range docs {
		t.Run(typ, func(t *testing.T) {
			v, err := m.Submit(problemSpec(doc))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			done := waitState(t, m, v.ID, StateDone)
			r := done.Result
			if r == nil {
				t.Fatal("done job has no result")
			}
			if r.Solution == nil {
				t.Fatal("problem job result has no decoded solution")
			}
			if r.Solution.Type != typ {
				t.Errorf("solution type %q, want %q", r.Solution.Type, typ)
			}
			if r.BestObjective == nil {
				t.Error("problem job result has no best_objective")
			} else if *r.BestObjective != r.Solution.Objective { //sophielint:ignore floateq both fields are written from the same Decode call
				t.Errorf("best_objective %v != solution objective %v", *r.BestObjective, r.Solution.Objective)
			}
			if r.BestCut != 0 { //sophielint:ignore floateq cut fields must stay exactly zero for non-graph jobs
				t.Errorf("problem job leaked a cut value %v", r.BestCut)
			}
			if len(r.BestSpins) == 0 {
				t.Error("result carries no spins")
			}
		})
	}
}

// TestProblemJobBitReproducible: the same spec submitted twice returns
// bit-identical energies and spins (acceptance: "bit-reproducibly").
// The second submission also hits the model-keyed solver cache.
func TestProblemJobBitReproducible(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	doc := `{"type":"maxsat","vars":5,"clauses":[{"lits":[1,2,3]},{"lits":[-1,4]},{"lits":[-2,-3,5],"weight":2},{"lits":[-4,-5]}]}`
	run := func() *ResultView {
		v, err := m.Submit(problemSpec(doc))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return waitState(t, m, v.ID, StateDone).Result
	}
	a, b := run(), run()
	if math.Float64bits(a.BestEnergy) != math.Float64bits(b.BestEnergy) {
		t.Errorf("best energy differs across identical submissions: %v vs %v", a.BestEnergy, b.BestEnergy)
	}
	if !bytes.Equal(int8Bytes(a.BestSpins), int8Bytes(b.BestSpins)) {
		t.Error("best spins differ across identical submissions")
	}
	cs := m.Stats().SolverCache
	if cs.Hits < 1 {
		t.Errorf("identical resubmission missed the solver cache: %+v", cs)
	}
}

// TestProblemJobDefaultWidthMatchesSerial: a one-replica problem job
// with no worker settings runs its replica at the batch's derived PE
// width (every core the batch leaves free), and returns the same spins,
// energy and decoded solution as the same job pinned to config.workers
// 1. The batch_workers 2 variant forces a two-worker PE pool on any
// machine.
func TestProblemJobDefaultWidthMatchesSerial(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	var edges []string
	for i := 0; i < 48; i++ {
		edges = append(edges, fmt.Sprintf("[%d,%d,1]", i, (i+1)%48), fmt.Sprintf("[%d,%d,1]", i, (i+17)%48))
	}
	doc := `{"type":"maxcut","graph":{"n":48,"edges":[` + strings.Join(edges, ",") + `]}}`
	run := func(o ConfigOverrides) *ResultView {
		spec := problemSpec(doc)
		spec.Seeds = []int64{11}
		spec.Config.Workers, spec.Config.BatchWorkers = o.Workers, o.BatchWorkers
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return waitState(t, m, v.ID, StateDone).Result
	}
	serial := run(ConfigOverrides{Workers: intp(1)})
	if serial.JobWorkers != 1 {
		t.Fatalf("config.workers 1 ran %d PE workers", serial.JobWorkers)
	}
	for _, c := range []struct {
		name string
		o    ConfigOverrides
		want int
	}{
		{"default", ConfigOverrides{}, runtime.GOMAXPROCS(0)},
		{"batch_workers 2", ConfigOverrides{BatchWorkers: intp(2)}, 2},
	} {
		got := run(c.o)
		if got.JobWorkers != c.want {
			t.Errorf("%s: ran %d PE workers, want %d", c.name, got.JobWorkers, c.want)
		}
		if math.Float64bits(got.BestEnergy) != math.Float64bits(serial.BestEnergy) {
			t.Errorf("%s: best energy %v, serial %v", c.name, got.BestEnergy, serial.BestEnergy)
		}
		if !bytes.Equal(int8Bytes(got.BestSpins), int8Bytes(serial.BestSpins)) {
			t.Errorf("%s: best spins differ from the serial job", c.name)
		}
		if got.Solution == nil || !reflect.DeepEqual(got.Solution, serial.Solution) {
			t.Errorf("%s: decoded solution %+v, serial %+v", c.name, got.Solution, serial.Solution)
		}
	}
}

// TestProblemCacheNamespaces pins the cache-key contract: a graph
// submission and a problem-spec submission of the SAME max-cut instance
// must occupy different cache entries ("graph:" vs "model:"
// namespaces), while two specs lowering to the same Hamiltonian share
// one ("model:" keys hash lowered content, not spelling).
func TestProblemCacheNamespaces(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})

	jd, err := m.resolveSpec(problemSpec(`{"type":"maxcut","graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,0,1]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	gspec := fastSpec(t)
	jg, err := m.resolveSpec(gspec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(jd.key.problem, "model:") {
		t.Errorf("problem-spec key %q lacks model: namespace", jd.key.problem)
	}
	if !strings.HasPrefix(jg.key.problem, "graph:") {
		t.Errorf("graph key %q lacks graph: namespace", jg.key.problem)
	}

	// Same QUBO spelled with transposed entries: identical lowered model,
	// identical cache key.
	ja, err := m.resolveSpec(problemSpec(`{"type":"qubo","n":3,"entries":[[0,1,-2],[1,2,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := m.resolveSpec(problemSpec(`{"type":"qubo","n":3,"entries":[[1,0,-2],[2,1,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if ja.key != jb.key {
		t.Errorf("transposed QUBO entries produced distinct keys:\n%q\n%q", ja.key.problem, jb.key.problem)
	}
	// A genuinely different weight must split the key.
	jc, err := m.resolveSpec(problemSpec(`{"type":"qubo","n":3,"entries":[[0,1,-2],[1,2,1.5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if jc.key == ja.key {
		t.Error("different QUBO weights collided on one cache key")
	}
}

// TestProblemSpecHTTP400Matrix drives malformed problem documents over
// HTTP and checks the structured rejection: status 400 and an
// {error, field} body pointing at the offending JSON path.
func TestProblemSpecHTTP400Matrix(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 1})
	cases := []struct {
		name  string
		doc   string
		field string
	}{
		{"unknown type", `{"type":"sudoku"}`, "problem.type"},
		{"missing type", `{"n":3}`, "problem.type"},
		{"bad json", `[1,2,3]`, "problem"}, // valid envelope JSON, not a spec object
		{"bad graph edge", `{"type":"maxcut","graph":{"n":3,"edges":[[0,9,1]]}}`, "problem.graph.edges[0]"},
		{"bad qubo order", `{"type":"qubo","n":-2}`, "problem.n"},
		{"semantic failure", `{"type":"maxsat","vars":2,"clauses":[{"lits":[7]}]}`, "problem"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/v1/jobs", problemSpec(c.doc))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			body := decodeInto[errorBody](t, resp)
			if body.Error == "" {
				t.Error("400 body has no error message")
			}
			if body.Field != c.field {
				t.Errorf("field %q, want %q", body.Field, c.field)
			}
		})
	}

	// Combining problem with a graph source is a plain (field-free) 400.
	spec := problemSpec(`{"type":"numberpartition","numbers":[1,2]}`)
	spec.Preset = "K100"
	resp := postJSON(t, srv.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed sources: status %d, want 400", resp.StatusCode)
	}
	_ = resp.Body.Close()

	// The rejections above must be visible in the metrics, labelled by
	// reason, both in Stats and the Prometheus exposition.
	rejects := m.Stats().SpecRejects
	for _, reason := range []string{"unknown_type", "missing_type", "bad_json", "bad_edge", "bad_order", "invalid"} {
		if rejects[reason] == 0 {
			t.Errorf("spec reject reason %q not counted: %v", reason, rejects)
		}
	}
	mresp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer func() { _ = mresp.Body.Close() }()
	exposition, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(exposition), `sophied_spec_rejects_total{reason="unknown_type"}`) {
		t.Error("exposition lacks sophied_spec_rejects_total{reason=\"unknown_type\"}")
	}
}

// TestProblemSparseBuiltNeedsSkipTransform: a spec lowering past the
// dense compile limit is admitted only with config.skip_transform; the
// rejection is a 400 that names the fix.
func TestProblemSparseBuiltNeedsSkipTransform(t *testing.T) {
	m := NewManager(Config{MaxReplicas: 4})
	spec := JobSpec{
		Problem: json.RawMessage(`{"type":"qubo","n":3000,"entries":[[0,1,1],[10,2000,-1]]}`),
		Seeds:   []int64{1},
	}
	_, err := m.resolveSpec(spec)
	if err == nil {
		t.Fatal("want rejection without skip_transform")
	}
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "skip_transform") {
		t.Fatalf("rejection %v should wrap ErrBadSpec and name skip_transform", err)
	}
	tr := true
	spec.Config.SkipTransform = &tr
	if _, err := m.resolveSpec(spec); err != nil {
		t.Fatalf("skip_transform spec rejected: %v", err)
	}
}

// TestProblemJobSurvivesSnapshotRestore pins WAL/snapshot
// compatibility: a problem job drained into a queue snapshot resolves
// and completes after Restore into a fresh manager — the RawMessage
// spec round-trips JSON serialization intact.
func TestProblemJobSurvivesSnapshotRestore(t *testing.T) {
	first := NewManager(Config{}) // no Start: the job stays queued
	v, err := first.Submit(problemSpec(`{"type":"numberpartition","numbers":[4,5,6,7,8]}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_ = v
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	snap, err := first.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(snap.Jobs) != 1 {
		t.Fatalf("snapshot carries %d jobs, want 1", len(snap.Jobs))
	}
	// The WAL stores this exact JSON shape; force a full round trip.
	blob, err := json.Marshal(snap.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []SnapshotJob
	if err := json.Unmarshal(blob, &replayed); err != nil {
		t.Fatal(err)
	}

	second := newTestManager(t, Config{Workers: 1})
	n, err := second.Restore(replayed)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d jobs, want 1", n)
	}
	done := waitState(t, second, replayed[0].ID, StateDone)
	if done.Result == nil || done.Result.Solution == nil {
		t.Fatal("restored problem job finished without a decoded solution")
	}
	if done.Result.Solution.Type != "numberpartition" {
		t.Errorf("restored solution type %q", done.Result.Solution.Type)
	}
	var np problem.NumberPartitionSolution
	raw, err := json.Marshal(done.Result.Solution.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &np); err != nil {
		t.Fatalf("assignment does not decode as NumberPartitionSolution: %v", err)
	}
	if len(np.Sides) != 5 {
		t.Errorf("assignment sides %v, want 5 entries", np.Sides)
	}
}
