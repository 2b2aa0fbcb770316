// Command ppa evaluates the SOPHIE power/performance/area model for a
// workload on a hardware design and prints the full report with time,
// energy, and area breakdowns — the model behind Fig. 9 and Tables
// II/III.
//
// Usage:
//
//	ppa -nodes 16384 -accel 1 -batch 100 -global 50 -tiles 0.74
//	ppa -nodes 32768 -tile 128 -batch 1000
//	ppa -nodes 2000 -pes 16 -global 5 -sim -trace   # discrete schedule walk
//	ppa -nodes 2000 -global 20 -trace               # trace-driven replay of a functional run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sophie/internal/arch"
	"sophie/internal/core"
	"sophie/internal/graph"
	"sophie/internal/problem"
	"sophie/internal/sched"
	"sophie/internal/tiling"
	"sophie/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppa:", err)
		os.Exit(1)
	}
}

// errWriter funnels all report output through one write-error check: a
// closed or full stdout (ppa | head, a broken pipe) surfaces as a
// command error instead of being silently dropped by unchecked Fprintf
// returns.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// traceReplayNodeLimit bounds the -trace functional replay: it runs the
// real solver (with SkipTransform), so very large instances belong to
// the analytic model or -sim instead.
const traceReplayNodeLimit = 4096

func run(args []string, stdoutRaw io.Writer) error {
	fs := flag.NewFlagSet("ppa", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 16384, "Ising problem order")
		accel     = fs.Int("accel", 1, "number of accelerators")
		chiplets  = fs.Int("chiplets", 4, "OPCM chiplets per accelerator")
		pes       = fs.Int("pes", 64, "PEs per chiplet")
		tile      = fs.Int("tile", 64, "tile size")
		batch     = fs.Int("batch", 100, "jobs per batch")
		local     = fs.Int("local", 10, "local iterations per global")
		global    = fs.Int("global", 50, "global iterations")
		frac      = fs.Float64("tiles", 0.74, "tile selection fraction")
		sim       = fs.Bool("sim", false, "also walk the concrete schedule (discrete simulation)")
		showTrace = fs.Bool("trace", false, "with -sim: print the round timeline; alone: replay a recorded functional run through the timing model")
		temper    = fs.Int("temper", 0, "with -trace: replay a tempering ladder of that many rungs instead of one run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stdout := &errWriter{w: stdoutRaw}

	d := arch.Design{
		Hardware: sched.Hardware{
			Accelerators:     *accel,
			ChipletsPerAccel: *chiplets,
			PEsPerChiplet:    *pes,
			TileSize:         *tile,
		},
		Params: arch.DefaultParams(),
	}
	rep, err := arch.Evaluate(d, arch.Workload{
		Name:         fmt.Sprintf("n=%d", *nodes),
		Nodes:        *nodes,
		Batch:        *batch,
		LocalIters:   *local,
		GlobalIters:  *global,
		TileFraction: *frac,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload: %s, batch %d, %dx%d local/global iters, %.0f%% tiles\n",
		rep.Workload.Name, rep.Workload.Batch, rep.Workload.LocalIters, rep.Workload.GlobalIters,
		100*rep.Workload.TileFraction)
	fmt.Fprintf(stdout, "hardware: %d accel x %d chiplets x %d PEs, tile %d (%d total PEs, capacity %d couplings)\n",
		*accel, *chiplets, *pes, *tile, d.Hardware.TotalPEs(), d.Hardware.Capacity())
	fmt.Fprintf(stdout, "schedule: %d pairs, %d selected/iter, %d rounds/iter, resident=%v, %.0f programs\n",
		rep.Schedule.Pairs, rep.Schedule.SelectedPairs, rep.Schedule.RoundsPerIter,
		rep.Schedule.Resident, rep.Schedule.ProgramsTotal)
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "time:   total %.4g s, per job %.4g s (bound by %s)\n",
		rep.TimeTotalS, rep.TimePerJobS, rep.Time.BoundBy)
	fmt.Fprintf(stdout, "        fill %.3g s | compute %.3g s | sync %.3g s | program %.3g s | cross-accel %.3g s\n",
		rep.Time.FillS, rep.Time.ComputeS, rep.Time.SyncS, rep.Time.ProgramS, rep.Time.CrossAccelS)
	fmt.Fprintf(stdout, "energy: total %.4g J, per job %.4g J, avg power %.4g W\n",
		rep.EnergyTotalJ, rep.EnergyPerJobJ, rep.AvgPowerW)
	e := rep.Energy
	fmt.Fprintf(stdout, "        laser %.3g | EO %.3g | ADC %.3g | SRAM %.3g | DRAM %.3g | bus %.3g | program %.3g | ctrl %.3g | glue %.3g (J)\n",
		e.LaserJ, e.EOJ, e.ADCJ, e.SRAMJ, e.DRAMJ, e.BusJ, e.ProgramJ, e.ControlJ, e.GlueJ)
	a := rep.Area
	fmt.Fprintf(stdout, "area:   total %.4g mm² (%d accelerator(s))\n", rep.AreaMM2, *accel)
	fmt.Fprintf(stdout, "        OPCM %.3g | SRAM %.3g | DRAM %.3g | laser %.3g | controller %.3g (mm² per accel)\n",
		a.OPCMChipletsMM2, a.SRAMMM2, a.DRAMMM2, a.LaserMM2, a.ControllerMM2)
	fmt.Fprintf(stdout, "EDAP:   %.4g J·s·mm² per job\n", rep.EDAP)

	feas, err := arch.CheckFeasibility(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "physical: laser %.3g W/chiplet | density %.3g W/mm² | program surge %.3g W\n",
		feas.LaserPowerPerChipletW, feas.AvgPowerDensityWPerMM2, feas.ProgramSurgeW)
	for _, warn := range feas.Warnings {
		fmt.Fprintf(stdout, "warning: %s\n", warn)
	}

	if *sim {
		grid, err := tiling.NewGrid(*nodes, *tile)
		if err != nil {
			return err
		}
		if grid.PairCount() > 200000 || *global > 2000 {
			return fmt.Errorf("-sim limited to moderate schedules (%d pairs, %d iterations requested)", grid.PairCount(), *global)
		}
		plan, err := sched.Generate(grid, d.Hardware, sched.Options{
			GlobalIters: *global, TileFraction: *frac, Seed: 1,
		})
		if err != nil {
			return err
		}
		simRep, err := arch.SimulatePlan(d, plan, arch.Workload{
			Name: rep.Workload.Name, Nodes: *nodes, Batch: *batch,
			LocalIters: *local, GlobalIters: *global, TileFraction: *frac,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ndiscrete simulation: total %.4g s, per job %.4g s over %d rounds (analytic %.4g s/job)\n",
			simRep.TotalTimeS, simRep.TimePerJobS, simRep.Rounds, rep.TimePerJobS)
		if *showTrace {
			if err := arch.RenderTimeline(stdout, simRep, 50); err != nil {
				return err
			}
		}
	} else if *showTrace {
		if *temper == 1 || *temper < 0 {
			return fmt.Errorf("-temper needs >= 2 rungs, got %d", *temper)
		}
		simRep, best, exch, err := traceReplay(d, *nodes, *tile, *local, *global, *frac, *temper)
		if err != nil {
			return err
		}
		if *temper > 0 {
			fmt.Fprintf(stdout, "\ntrace replay: total %.4g s over %d rounds for a %d-rung tempering ladder (%.4g s/rung), best energy %.6g\n",
				simRep.TotalTimeS, simRep.Rounds, *temper, simRep.TimePerJobS, best)
			fmt.Fprintf(stdout, "exchanges: %d attempted, %d accepted\n", exch.attempted, exch.accepted)
		} else {
			fmt.Fprintf(stdout, "\ntrace replay: total %.4g s over %d rounds for one job (analytic %.4g s/job), best energy %.6g\n",
				simRep.TotalTimeS, simRep.Rounds, rep.TimePerJobS, best)
		}
		if err := arch.RenderTimeline(stdout, simRep, 50); err != nil {
			return err
		}
	} else if *temper != 0 {
		return fmt.Errorf("-temper requires -trace (it replays a recorded tempering run)")
	}
	return stdout.err
}

// exchangeTally counts the exchange events of a tempering replay.
type exchangeTally struct{ attempted, accepted int }

// traceReplay runs one functional solve of a random MaxCut instance with
// an execution-trace recorder attached and replays the captured stream
// through the timing model (arch.SimulateTrace) — timing the pair visits
// the solver actually made rather than a static plan. With rungs >= 2 it
// runs the tempering portfolio instead: every rung's visits land in the
// same stream (lockstep, so SimulateTrace prices the ladder exactly) and
// the exchange events are tallied for the report.
func traceReplay(d arch.Design, nodes, tile, local, global int, frac float64, rungs int) (*arch.SimReport, float64, exchangeTally, error) {
	var tally exchangeTally
	if nodes > traceReplayNodeLimit {
		return nil, 0, tally, fmt.Errorf("-trace replays a functional run; limited to %d nodes (got %d) — combine with -sim for the static walk", traceReplayNodeLimit, nodes)
	}
	grid, err := tiling.NewGrid(nodes, tile)
	if err != nil {
		return nil, 0, tally, err
	}
	sel := int(float64(grid.PairCount())*frac + 0.5)
	if sel < 1 {
		sel = 1
	}
	runs := 1
	if rungs >= 2 {
		runs = rungs
	}
	// Ring sized to the whole run: init MVMs plus, per iteration, the
	// batch and sync events of every selected pair, the per-block
	// reconciliations, and the handful of phase markers — all scaled by
	// the run count, plus one exchange event per attempted swap.
	capacity := runs*(grid.PairCount()+global*(2*sel+grid.Tiles+8)+8) + global*runs

	g, err := graph.Random(nodes, 5*nodes, graph.WeightUnit, 1)
	if err != nil {
		return nil, 0, tally, err
	}
	c, err := problem.Compile(&problem.MaxCut{G: g})
	if err != nil {
		return nil, 0, tally, err
	}
	cfg := core.DefaultConfig()
	cfg.TileSize = tile
	cfg.LocalIters = local
	cfg.GlobalIters = global
	cfg.TileFraction = frac
	cfg.SkipTransform = true
	cfg.Seed = 1
	rec := trace.NewRecorder(trace.Options{Capacity: capacity})
	cfg.Tracer = rec

	var best float64
	if rungs >= 2 {
		solver, err := core.NewSolver(c.Model, cfg)
		if err != nil {
			return nil, 0, tally, err
		}
		seeds, err := core.SeedRange(1, rungs)
		if err != nil {
			return nil, 0, tally, err
		}
		batch, err := solver.RunTempering(seeds, core.TemperingOptions{TMin: 0.05, TMax: 0.5, ExchangeEvery: 5})
		if err != nil {
			return nil, 0, tally, err
		}
		best = batch.BestEnergy
		tally.attempted = batch.Tempering.Attempted
		tally.accepted = batch.Tempering.Accepted
	} else {
		res, err := core.Solve(c.Model, cfg)
		if err != nil {
			return nil, 0, tally, err
		}
		best = res.BestEnergy
	}
	simRep, err := arch.SimulateTrace(d, rec.Snapshot())
	if err != nil {
		return nil, 0, tally, err
	}
	return simRep, best, tally, nil
}
