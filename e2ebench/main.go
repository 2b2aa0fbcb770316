// Command e2ebench is the repository's end-to-end time-to-quality
// benchmark. It boots an in-process sophied (service.NewManager with the
// daemon's flag defaults behind an httptest server, journaled to a WAL
// on the serve-mix workload), drives it with a closed loop of at most
// GOMAXPROCS clients that POST generated problem specs to /v1/jobs and
// wait for each job's SSE "result" event, and verifies every returned
// solution against the generated instance, whose optimum is planted.
//
// Workloads:
//
//	sat-tts     1 client; fresh planted 3-SAT (64 vars, 192 clauses, 256
//	            spins), 4 replicas stopping at 95% satisfied weight: the
//	            paper's time-to-95% metric.
//	serve-mix   2 clients; small planted 3-SAT (30 vars, 150 spins) drawn at
//	            random from a 16-instance pool against the 8-entry solver
//	            cache, default transform, WAL on: service overheads.
//	sparse-cut  1 client; fresh 20k-node bipartite cubic max-cut (450 KB
//	            spec), tile 1024, sparse engine: big specs and results.
//
// With -trace 0 the last line of standard output reports the end-to-end
// metrics; with -trace 1 a separate run of the same jobs replays the
// first jobs layer by layer through the public problem, core and trace
// APIs and reports per-layer metrics, checking that the layers add up to
// the replayed total. The line before it is a full report: every metric
// with its unit, sample count and quartiles, plus the host (nproc,
// GOMAXPROCS, Go version), the seed and the instance sizes.
//
// What each layer should move, written down before measuring:
//
//	problem.*     parse and compile: latency_p50_s on sparse-cut; no change on sat-tts
//	core.local_s  and ns_per_mvm: latency_p50_s on sat-tts and sparse-cut; no change on serve-mix
//	core.build_s  jobs_per_s on serve-mix only (cache misses)
//	service.*     jobs_per_s and latency_p90_s on serve-mix; latency_p50_s on sparse-cut via result size
//	wal.*         service.submit_s and latency_p50_s on serve-mix, the only journaled workload
//
// core.iters_to_target, the MVM counts and core.objective come from
// deterministic passes and must repeat exactly under a pure-speed change.
//
// Usage (from the repository root, building under .bench_build/):
//
//	bash e2ebench/run.sh --workload sat-tts --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"sophie/internal/ising"
	"sophie/internal/service"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// maxJobs caps the jobs each client submits (0: bounded by time only).
	maxJobs int
	// setups is how many times set-up is repeated; its median is reported.
	setups int
	sizes  sizes
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sizes: fullSizes, setups: 7}
	fs.StringVar(&o.workload, "workload", "", "workload: sat-tts, serve-mix or sparse-cut")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every instance derives from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds of load")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the WAL and other run files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "e2ebench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	o.trace = *traceFlag == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// metric is one reported figure: its value plus the sample count and
// quartiles of the per-job samples it summarizes, when it has them.
type metric struct {
	Name     string  `json:"name"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples,omitempty"`
	P25      float64 `json:"p25,omitempty"`
	P75      float64 `json:"p75,omitempty"`
	Contract bool    `json:"-"` // part of the final-line contract
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	mismatches        int
	metrics           []metric
	info              map[string]any
}

func (r *result) add(m metric) { r.metrics = append(r.metrics, m) }

// print writes the full report line, then the contract line the
// benchmark driver reads: exactly correct, attempted, failed and
// metrics, the latter holding the contract metrics only.
func (r *result) print(w io.Writer) error {
	report := map[string]any{"info": r.info, "metrics": r.metrics,
		"mismatches": r.mismatches, "correct": r.correct,
		"attempted": r.attempted, "failed": r.failed}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	contract := map[string]value{}
	for _, m := range r.metrics {
		if m.Contract {
			contract[m.Name] = value{m.Value, m.Unit}
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, contract})
	if err != nil {
		return err
	}
	for _, m := range r.metrics {
		if _, err := fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, last)
	return err
}

// bench is one run's state: the workload, its instances and the service.
type bench struct {
	o    options
	w    *workload
	pool []*instance
}

func run(o options) (*result, error) {
	w, ok := workloads(o.sizes)[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sat-tts, serve-mix or sparse-cut)", o.workload)
	}
	if o.seconds <= 0 || o.setups < 1 {
		return nil, fmt.Errorf("need positive -seconds and set-up count")
	}
	if w.clients > runtime.GOMAXPROCS(0) {
		return nil, fmt.Errorf("workload %s needs %d clients but GOMAXPROCS is %d", w.name, w.clients, runtime.GOMAXPROCS(0))
	}
	b := &bench{o: o, w: w}
	walDir := ""
	if w.wal {
		walDir = filepath.Join(o.workdir, fmt.Sprintf("wal-%d", os.Getpid()))
		defer os.RemoveAll(walDir)
	}

	// Set-up: instance generation, server start and warm-up, repeated;
	// the last service instance carries the measured load.
	var setupS []float64
	var svc *sophied
	for i := 0; i < o.setups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up service: %w", err)
			}
		}
		start := time.Now()
		var err error
		if svc, err = b.setup(walDir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	loadSeconds := o.seconds
	if o.trace {
		// The traced run splits its budget between the service pass and
		// the layer replay.
		loadSeconds = o.seconds / 2
	}
	l, err := b.load(svc, loadSeconds)
	if stopErr := svc.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping service: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}

	res := &result{info: b.info()}
	v := summarize(l.outcomes)
	res.attempted = len(l.outcomes)
	res.failed = v.failed
	res.mismatches = v.mismatches
	res.correct = v.mismatches == 0
	res.info["jobs"] = len(l.outcomes)
	res.info["errors"] = v.errors

	if !o.trace {
		b.endToEnd(res, l, v, setupS)
		return res, nil
	}
	if err := b.perLayer(res, l); err != nil {
		return nil, err
	}
	return res, nil
}

// setup generates the workload's fixed instances, starts the service
// and warms it: pool workloads run every pool instance once (filling
// the solver cache to its steady state), others run one small fixed
// instance through the same job configuration.
func (b *bench) setup(walDir string) (*sophied, error) {
	b.pool = nil
	for i := 0; i < b.w.pool; i++ {
		in, err := b.w.gen(mix(b.o.seed, 0, int64(i)))
		if err != nil {
			return nil, fmt.Errorf("generating pool instance %d: %w", i, err)
		}
		b.pool = append(b.pool, in)
	}
	svc, err := startSophied(walDir, b.o.trace)
	if err != nil {
		return nil, err
	}
	warm := b.pool
	if len(warm) == 0 {
		in, err := b.w.warm()
		if err != nil {
			_ = svc.stop() // reporting the generation failure instead
			return nil, err
		}
		warm = []*instance{in}
	}
	for i, in := range warm {
		body, err := json.Marshal(b.w.spec(in, int64(i+1)))
		if err == nil {
			if o := svc.run(context.Background(), body); o.err != nil {
				err = fmt.Errorf("warm-up job %d: %w", i, o.err)
			}
		}
		if err != nil {
			_ = svc.stop() // reporting the warm-up failure instead
			return nil, err
		}
	}
	return svc, nil
}

// job returns client c's k-th job: its instance and JobSpec body, a
// pure function of the workload seed.
func (b *bench) job(c, k int) (*instance, []byte, error) {
	var in *instance
	if len(b.pool) > 0 {
		in = b.pool[mix(b.o.seed, 2, int64(c), int64(k))%int64(len(b.pool))]
	} else {
		var err error
		if in, err = b.w.gen(mix(b.o.seed, 1, int64(c), int64(k))); err != nil {
			return nil, nil, err
		}
	}
	jobSeed := mix(b.o.seed, 3, int64(c), int64(k))%1_000_000_007 + 1
	body, err := json.Marshal(b.w.spec(in, jobSeed))
	return in, body, err
}

// load is the measured service pass.
type load struct {
	outcomes []outcome
	wall     float64   // seconds from the first POST to the last result, less client think time
	heapMB   []float64 // live heap sampled every 5 ms
	allocMB  float64   // heap allocated during the pass
	cache    service.CacheStats
	wal      walStats
}

// load runs the closed loop: every client submits its next job only
// after the previous one's result arrived, until the deadline passes.
func (b *bench) load(svc *sophied, seconds float64) (*load, error) {
	before := svc.m.Stats().SolverCache
	heap := startHeapSampler(5 * time.Millisecond)
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(allocs)
	allocStart := allocs[0].Value.Uint64()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]outcome, b.w.clients)
	thinkNS := make([]int64, b.w.clients)
	errs := make([]error, b.w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			models := map[*instance]*ising.Model{} // pool models, compiled once per client
			for k := 0; time.Now().Before(deadline) && (b.o.maxJobs == 0 || k < b.o.maxJobs); k++ {
				t := time.Now()
				in, body, err := b.job(c, k)
				think := time.Since(t)
				if err != nil {
					errs[c] = err
					return
				}
				o := svc.run(ctx, body)
				o.client, o.index = c, k
				t = time.Now()
				b.verifyOutcome(&o, in, models)
				thinkNS[c] += int64(think + time.Since(t))
				perClient[c] = append(perClient[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	l := &load{heapMB: heap.finish()}
	rtmetrics.Read(allocs)
	l.allocMB = float64(allocs[0].Value.Uint64()-allocStart) / (1 << 20)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("generating jobs: %w", err)
	}
	// Generating and verifying jobs is client think time, not service
	// time: take the slowest client's share out of the wall clock.
	var maxThink int64
	for _, t := range thinkNS {
		maxThink = max(maxThink, t)
	}
	l.wall = (wall - time.Duration(maxThink)).Seconds()
	for _, oc := range perClient {
		l.outcomes = append(l.outcomes, oc...)
	}
	sort.Slice(l.outcomes, func(i, j int) bool {
		a, c := l.outcomes[i], l.outcomes[j]
		return a.index < c.index || (a.index == c.index && a.client < c.client)
	})
	after := svc.m.Stats().SolverCache
	l.cache = service.CacheStats{Entries: after.Entries, Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	l.wal = svc.journal.stats()
	return l, nil
}

func (b *bench) info() map[string]any {
	sz := b.o.sizes
	info := map[string]any{
		"workload":   b.w.name,
		"seed":       b.o.seed,
		"seconds":    b.o.seconds,
		"trace":      b.o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    b.w.clients,
		"wal":        b.w.wal,
		"pool":       b.w.pool,
		"setups":     b.o.setups,
	}
	switch b.w.name {
	case "sat-tts":
		info["instance"] = map[string]int{"vars": sz.satVars, "clauses": sz.satClauses, "k": 3, "replicas": 4, "global_iters": sz.satIters}
	case "serve-mix":
		info["instance"] = map[string]int{"vars": sz.mixVars, "clauses": sz.mixClauses, "k": 3, "replicas": 1, "global_iters": 30}
	case "sparse-cut":
		info["instance"] = map[string]int{"nodes": sz.cutNodes, "edges": 3 * sz.cutNodes / 2, "replicas": 1, "global_iters": 20, "tile": 1024}
	}
	return info
}
