package main

import (
	"fmt"
	"sort"

	"sophie/internal/ising"
	"sophie/internal/problem"
)

// verdict summarizes the verified outcomes of a load pass.
type verdict struct {
	failed     int      // refused, failed, timed out or mismatched
	mismatches int      // results that disagree with the instance
	errors     []string // the first few failures, for the report
	quality    []float64
	hit95      int
	iters95    []float64 // iterations the first target-reaching replica ran
}

const maxReportedErrors = 5

func summarize(outcomes []outcome) verdict {
	var v verdict
	for _, o := range outcomes {
		if o.err != nil {
			v.failed++
			if o.mismatch {
				v.mismatches++
			}
			if len(v.errors) < maxReportedErrors {
				v.errors = append(v.errors, fmt.Sprintf("client %d job %d: %v", o.client, o.index, o.err))
			}
			continue
		}
		v.quality = append(v.quality, o.quality)
		if o.quality >= 0.95 {
			v.hit95++
		}
		if o.iters95 >= 0 {
			v.iters95 = append(v.iters95, float64(o.iters95))
		}
	}
	return v
}

// verifyOutcome checks a finished job against its instance and records
// its quality, then drops the decoded result so a client keeps only
// scalars however many jobs it completes. models caches the locally
// compiled models of pool instances.
func (b *bench) verifyOutcome(o *outcome, in *instance, models map[*instance]*ising.Model) {
	view := o.view
	o.view = nil
	o.iters95 = -1
	if o.err != nil {
		return
	}
	m, ok := models[in]
	if !ok {
		c, err := problem.Compile(in.prob)
		if err != nil {
			o.err = fmt.Errorf("compiling the instance locally: %w", err)
			return
		}
		m = c.Model
		if len(b.pool) > 0 {
			models[in] = m
		}
	}
	obj, err := check(in, view.Result, m)
	if err != nil {
		o.err, o.mismatch = err, true
		return
	}
	o.quality = obj / in.optimum
	for _, r := range view.Result.Replicas {
		if r.ReachedTarget && (o.iters95 < 0 || r.GlobalItersRun < o.iters95) {
			o.iters95 = r.GlobalItersRun
		}
	}
}

// check recomputes a job's objective from its decoded assignment against
// the generated instance and returns it. It must match best_objective
// and the solution's objective exactly (both are integer counts), the
// assignment must be the best spins' domain prefix, and best_energy must
// equal the locally compiled model's energy of best_spins bit for bit.
func check(in *instance, rv *resultView, m *ising.Model) (float64, error) {
	if rv.Solution == nil || rv.BestObjective == nil {
		return 0, fmt.Errorf("result carries no decoded solution")
	}
	if len(rv.BestSpins) != m.N() {
		return 0, fmt.Errorf("best_spins has %d spins, the model %d", len(rv.BestSpins), m.N())
	}
	for i, s := range rv.BestSpins {
		if s != 1 && s != -1 {
			return 0, fmt.Errorf("best_spins[%d] = %d is not a spin", i, s)
		}
	}
	//sophielint:ignore floateq the reported energy must equal the recomputed one bit for bit
	if e := m.Energy(rv.BestSpins); e != rv.BestEnergy {
		return 0, fmt.Errorf("best_energy %v, but Energy(best_spins) = %v", rv.BestEnergy, e)
	}
	assign := rv.Solution.Assignment.Sides
	if in.clauses != nil {
		assign = rv.Solution.Assignment.Bits
	}
	if len(assign) != in.n {
		return 0, fmt.Errorf("assignment has %d variables, the instance %d", len(assign), in.n)
	}
	for i, x := range assign {
		want := 0
		if rv.BestSpins[i] == 1 {
			want = 1
		}
		if x != want {
			return 0, fmt.Errorf("assignment[%d] = %d disagrees with best_spins", i, x)
		}
	}
	var obj float64
	if in.clauses != nil {
		obj = float64(in.satisfied(assign))
	} else {
		obj = float64(in.cut(assign))
	}
	//sophielint:ignore floateq objectives are integer counts, exact in float64
	if obj != *rv.BestObjective || obj != rv.Solution.Objective {
		return 0, fmt.Errorf("recomputed objective %v, reported best_objective %v / solution %v",
			obj, *rv.BestObjective, rv.Solution.Objective)
	}
	return obj, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// summary renders samples as a metric: value is the given statistic,
// with the sample count and quartiles alongside.
func summary(name, unit string, xs []float64, value float64) metric {
	return metric{Name: name, Unit: unit, Value: value, Samples: len(xs),
		P25: quantile(xs, 0.25), P75: quantile(xs, 0.75)}
}

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(res *result, l *load, v verdict, setupS []float64) {
	var lat []float64
	for _, o := range l.outcomes {
		if o.err == nil {
			lat = append(lat, o.latency.Seconds())
		}
	}
	n := float64(len(l.outcomes))
	ok := n - float64(v.failed)
	contract := func(m metric) metric { m.Contract = true; return m }
	res.add(contract(summary("latency_p50_s", "s", lat, quantile(lat, 0.5))))
	res.add(contract(summary("latency_p90_s", "s", lat, quantile(lat, 0.9))))
	res.add(contract(metric{Name: "jobs_per_s", Unit: "1/s", Value: ok / l.wall, Samples: int(ok)}))
	res.add(contract(summary("quality_mean", "frac", v.quality, mean(v.quality))))
	res.add(contract(metric{Name: "ok_frac", Unit: "frac", Value: ok / n, Samples: len(l.outcomes)}))
	// Memory is reported as the time-averaged live heap and the bytes
	// allocated per job: the live heap's maximum is an extreme value that
	// moves with GC timing from run to run (reported below, beside).
	res.add(contract(summary("heap_mean_mb", "MiB", l.heapMB, mean(l.heapMB))))
	res.add(contract(metric{Name: "alloc_mb_per_job", Unit: "MiB", Value: l.allocMB / n, Samples: len(l.outcomes)}))
	res.add(contract(summary("setup_s", "s", setupS, quantile(setupS, 0.5))))
	// Reported beside the contract metrics: these can be exactly zero on
	// some workloads (no sparse-cut job reaches 95% today, no job fails,
	// only sat-tts sets a target), so a relative spread cannot apply.
	res.add(metric{Name: "hit95_frac", Unit: "frac", Value: float64(v.hit95) / n, Samples: len(l.outcomes)})
	res.add(metric{Name: "fail_frac", Unit: "frac", Value: float64(v.failed) / n, Samples: len(l.outcomes)})
	res.add(summary("peak_heap_mb", "MiB", l.heapMB, quantile(l.heapMB, 1)))
	if len(v.iters95) > 0 {
		res.add(summary("iters95_p50", "count", v.iters95, quantile(v.iters95, 0.5)))
	}
}
