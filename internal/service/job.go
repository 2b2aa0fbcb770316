package service

import (
	"context"
	"encoding/json"
	"time"

	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/ising"
	"sophie/internal/metrics"
	"sophie/internal/problem"
	"sophie/internal/trace"
)

// State is a job's lifecycle position: queued → running → done |
// failed | cancelled. There are no other transitions; in particular a
// terminal job never leaves its terminal state (the TTL janitor deletes
// it wholesale).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the submission payload of POST /v1/jobs: one problem
// source (inline GSET text, a file reference under the server's problem
// directory, or a named preset), a replica/seed policy, an optional
// per-job timeout, and runtime/preprocessing config overrides.
type JobSpec struct {
	// Exactly one of Graph, GraphFile, Preset, Problem selects the
	// problem. The first three are max-cut sources; Problem is the
	// typed problem-spec union (internal/problem.ParseSpec) compiled
	// through the QUBO/Ising front end, with the decoded domain
	// solution attached to the result.
	Graph     string          `json:"graph,omitempty"`      // inline GSET text ("n m" header + "u v w" edges)
	GraphFile string          `json:"graph_file,omitempty"` // file under the server's -problem-dir
	Preset    string          `json:"preset,omitempty"`     // G1 | G22 | K100
	Problem   json.RawMessage `json:"problem,omitempty"`    // tagged union on "type"

	// Replicas and Seed define the batch: seeds Seed..Seed+Replicas-1
	// (core.SeedRange). Seeds, when non-empty, overrides both.
	Replicas int     `json:"replicas,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Seeds    []int64 `json:"seeds,omitempty"`

	// TimeoutMS bounds the job's execution wall clock; expiry stops
	// every replica at its next global-iteration boundary and the job
	// completes with its best-so-far partial results and timed_out set.
	// 0 inherits the server's default timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// EarlyStop enables the batch portfolio mode (requires a
	// target_energy in Config): results become schedule-dependent.
	EarlyStop bool `json:"early_stop,omitempty"`

	// Tempering runs the replicas as a parallel-tempering ladder
	// (core.TemperingOptions) instead of independent restarts: replica r
	// becomes temperature rung r. Requires replicas >= 2; incompatible
	// with early_stop.
	Tempering *TemperingSpec `json:"tempering,omitempty"`

	Config ConfigOverrides `json:"config"`
}

// TemperingSpec selects the tempering portfolio runtime for a job; the
// fields mirror core.TemperingOptions.
type TemperingSpec struct {
	// TMin and TMax bound the geometric phi ladder; rung 0 is coldest.
	TMin float64 `json:"tmin"`
	TMax float64 `json:"tmax"`
	// ExchangeEvery is the exchange period in global iterations
	// (default 1).
	ExchangeEvery int `json:"exchange_every,omitempty"`
}

// ConfigOverrides selects per-job solver settings; nil fields inherit
// core.DefaultConfig. Field semantics match the core.Config fields of
// the same name.
type ConfigOverrides struct {
	TileSize       *int     `json:"tile_size,omitempty"`
	LocalIters     *int     `json:"local_iters,omitempty"`
	GlobalIters    *int     `json:"global_iters,omitempty"`
	TileFraction   *float64 `json:"tile_fraction,omitempty"`
	Phi            *float64 `json:"phi,omitempty"`
	PhiEnd         *float64 `json:"phi_end,omitempty"`
	Alpha          *float64 `json:"alpha,omitempty"`
	SkipTransform  *bool    `json:"skip_transform,omitempty"`
	TransformRank  *int     `json:"transform_rank,omitempty"`
	SpinUpdate     *string  `json:"spin_update,omitempty"` // "majority" | "stochastic"
	Device         *bool    `json:"device,omitempty"`      // run MVMs through the OPCM device model
	TargetEnergy   *float64 `json:"target_energy,omitempty"`
	EvalEvery      *int     `json:"eval_every,omitempty"`
	ExactRecompute *bool    `json:"exact_recompute,omitempty"`
	// Workers is the per-replica PE worker count (absent: the cores the
	// batch leaves free per replica); BatchWorkers bounds concurrent
	// replicas (core.BatchOptions). Neither changes results.
	Workers      *int `json:"workers,omitempty"`
	BatchWorkers *int `json:"batch_workers,omitempty"`
}

// job is the manager's internal record. Mutable fields (state,
// timestamps, cancel, result, err, flags) are guarded by Manager.mu;
// the resolved problem/config fields are written once at submission and
// read-only afterwards.
type job struct {
	id     string
	tenant string
	spec   JobSpec
	// g is the parsed graph for max-cut submissions and nil for typed
	// problem-spec jobs, which carry the front end in prob instead;
	// offset recovers the domain objective from a model energy
	// (problem.Compiled.Offset, zero for graph jobs).
	g      *graph.Graph
	prob   problem.Problem
	offset float64
	model  *ising.Model
	key    solverKey
	// baseCfg carries only preprocessing-relevant settings and is what
	// the cached solver is built from; runCfg is the job's full config,
	// applied per run via WithRuntime. Splitting the two lets jobs that
	// differ only in runtime knobs share one preprocessed solver.
	baseCfg   core.Config
	runCfg    core.Config
	seeds     []int64
	timeout   time.Duration
	batchOpts core.BatchOptions

	state           State
	submitted       time.Time
	started         time.Time
	finished        time.Time
	cancel          context.CancelFunc // non-nil only while running
	cancelRequested bool
	timedOut        bool
	err             error
	result          *core.BatchResult
	// progress reduces the job's execution-trace events while it runs
	// (internal/trace.Progress); the pointer is installed at the
	// queued→running transition under Manager.mu and the reducer itself
	// is internally synchronized.
	progress *trace.Progress
	// hub fans the job's progress stream out to SSE subscribers
	// (GET /v1/jobs/{id}/events); created at admission, closed with the
	// final view when the job goes terminal. Internally synchronized.
	hub *eventHub
	// restored marks a job re-admitted from the journal after a restart
	// (Manager.Restore) rather than submitted in this process lifetime.
	restored bool
}

// JobView is the JSON face of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID              string     `json:"id"`
	Tenant          string     `json:"tenant,omitempty"`
	State           State      `json:"state"`
	SubmittedAt     time.Time  `json:"submitted_at"`
	StartedAt       *time.Time `json:"started_at,omitempty"`
	FinishedAt      *time.Time `json:"finished_at,omitempty"`
	Replicas        int        `json:"replicas"`
	Seeds           []int64    `json:"seeds"`
	TimedOut        bool       `json:"timed_out,omitempty"`
	CancelRequested bool       `json:"cancel_requested,omitempty"`
	Error           string     `json:"error,omitempty"`
	// Progress reports live execution state while the job runs — the
	// furthest evaluated global iteration, best-so-far energy, and flip
	// throughput, reduced from the job's execution-trace stream. Absent
	// on queued and terminal jobs (terminal jobs carry Result instead).
	Progress *trace.ProgressSnapshot `json:"progress,omitempty"`
	Result   *ResultView             `json:"result,omitempty"`
}

// ResultView is the JSON rendering of a finished (or partially
// finished) batch: the aggregate plus one entry per replica. For graph
// (max-cut) jobs cut values are computed against the job's graph; for
// typed problem-spec jobs Objective and Solution carry the decoded
// domain answer instead and the cut fields stay zero.
type ResultView struct {
	BestEnergy float64 `json:"best_energy"`
	BestCut    float64 `json:"best_cut"`
	// BestObjective is the domain objective of the best spins
	// (model energy + compile offset folded through Decode); only set
	// for problem-spec jobs.
	BestObjective *float64 `json:"best_objective,omitempty"`
	// Solution is the decoded domain solution of the best spins, and
	// EnergyOffset the compile-time constant relating model energies to
	// domain objectives (f = H + offset); problem-spec jobs only.
	Solution     *problem.Solution `json:"solution,omitempty"`
	EnergyOffset float64           `json:"energy_offset,omitempty"`
	BestIndex    int               `json:"best_index"`
	BestSpins    []int8            `json:"best_spins"`
	MeanEnergy   float64           `json:"mean_energy"`
	MedianEnergy float64           `json:"median_energy"`
	Succeeded    int               `json:"succeeded"`
	SuccessProb  float64           `json:"success_prob"`
	Stopped      int               `json:"stopped"`
	// JobWorkers is the PE worker count each replica ran with
	// (core.BatchResult.JobWorkers), so a job can explain its
	// parallelism.
	JobWorkers int              `json:"job_workers"`
	Replicas   []ReplicaView    `json:"replicas"`
	Ops        metrics.OpCounts `json:"ops"`
	// Tempering carries the exchange statistics when the job ran as a
	// tempering ladder; absent for independent-restart batches.
	Tempering *TemperingView `json:"tempering,omitempty"`
}

// TemperingView is the JSON rendering of core.TemperingStats: the phi
// ladder, each rung's final energy, and the exchange acceptance stats.
type TemperingView struct {
	Phis         []float64 `json:"phis"`
	RungEnergies []float64 `json:"rung_energies"`
	Attempted    int       `json:"exchanges_attempted"`
	Accepted     int       `json:"exchanges_accepted"`
	ExchangeRate float64   `json:"exchange_rate"`
}

// ReplicaView summarizes one replica of a job's batch.
type ReplicaView struct {
	Seed           int64   `json:"seed"`
	BestEnergy     float64 `json:"best_energy"`
	BestCut        float64 `json:"best_cut"`
	BestGlobalIter int     `json:"best_global_iter"`
	GlobalItersRun int     `json:"global_iters_run"`
	ReachedTarget  bool    `json:"reached_target,omitempty"`
	Stopped        bool    `json:"stopped,omitempty"`
}

// viewLocked renders a job; the caller holds Manager.mu.
func (m *Manager) viewLocked(j *job) JobView {
	v := JobView{
		ID:              j.id,
		Tenant:          j.tenant,
		State:           j.state,
		SubmittedAt:     j.submitted,
		Replicas:        len(j.seeds),
		Seeds:           append([]int64(nil), j.seeds...),
		TimedOut:        j.timedOut,
		CancelRequested: j.cancelRequested,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.state == StateRunning && j.progress != nil {
		ps := j.progress.Snapshot()
		v.Progress = &ps
	}
	if j.result != nil {
		v.Result = j.resultView(j.result)
	}
	return v
}

func (j *job) resultView(b *core.BatchResult) *ResultView {
	best := b.Best()
	rv := &ResultView{
		BestEnergy:   b.BestEnergy,
		BestIndex:    b.BestIndex,
		BestSpins:    append([]int8(nil), best.BestSpins...),
		MeanEnergy:   b.MeanEnergy,
		MedianEnergy: b.MedianEnergy,
		Succeeded:    b.Succeeded,
		SuccessProb:  b.SuccessProb,
		Stopped:      b.Stopped,
		JobWorkers:   b.JobWorkers,
		Replicas:     make([]ReplicaView, len(b.Results)),
		Ops:          b.Ops,
	}
	if j.g != nil {
		rv.BestCut = j.g.CutValue(best.BestSpins)
	}
	if j.prob != nil {
		rv.EnergyOffset = j.offset
		// Decode never mutates the front end, so rendering concurrent
		// views is safe; a decode failure (impossible for spins the
		// solver produced) degrades to an energy-only view.
		if sol, err := j.prob.Decode(best.BestSpins); err == nil {
			rv.Solution = sol
			obj := sol.Objective
			rv.BestObjective = &obj
		}
	}
	for i, r := range b.Results {
		rv.Replicas[i] = ReplicaView{
			Seed:           j.seeds[i],
			BestEnergy:     r.BestEnergy,
			BestGlobalIter: r.BestGlobalIter,
			GlobalItersRun: r.GlobalItersRun,
			ReachedTarget:  r.ReachedTarget,
			Stopped:        r.Stopped,
		}
		if j.g != nil {
			rv.Replicas[i].BestCut = j.g.CutValue(r.BestSpins)
		}
	}
	if ts := b.Tempering; ts != nil {
		rv.Tempering = &TemperingView{
			Phis:         append([]float64(nil), ts.Phis...),
			RungEnergies: append([]float64(nil), ts.RungEnergies...),
			Attempted:    ts.Attempted,
			Accepted:     ts.Accepted,
			ExchangeRate: ts.ExchangeRate,
		}
	}
	return rv
}
