package core

import (
	"math"

	"sophie/internal/linalg"
	"sophie/internal/metrics"
)

// Colored parallel update (Config.ColoredUpdate).
//
// The default SOPHIE recurrence is block-synchronous: every spin of a
// tile thresholds against the products of the previous iteration. The
// colored update is the chromatic Gauss-Seidel alternative the sparse
// literature uses ("Massively Parallel Probabilistic Computing with
// Sparse Ising Machines", PAPERS.md): spins are partitioned into
// independent sets by greedy coloring of the coupling sparsity graph,
// classes update in sequence, and within a class every spin thresholds
// concurrently — safe because same-class spins share no coupling, so
// none reads a value another is writing. Between classes the running
// product y = C·s is patched with the flipped spins' adjacency rows in
// O(flips·degree).
//
// The sweep is the local update of a diagonal tile pair inside the one
// run loop (jobRun, driven by lockstep): each diagonal pair colors its
// own CSR tile once in NewSolver and sweeps its row block against
// y + offRow, where the offset vector carries the rest of the row's
// couplings exactly as on the default datapath. Off-diagonal pairs keep
// the default delta update, and the controller (load, synchronization,
// evaluation) is shared, so a colored run tiles and tempers like any
// other. On a single tile with integer couplings the offset is exactly
// zero, so pair 0's trajectory is the plain chromatic sweep over the
// whole model (pinned by TestColoredUpdateGolden).
//
// Determinism at any worker count rests on three invariants:
//  1. Noise is stateless: each (step, spin) pair derives its normal
//     deviate from the pair's splitmix64 stream (seed, roleColored,
//     pair) — there is no RNG state to migrate between workers.
//  2. Threshold writes are sharded by spin: each shard owns a
//     contiguous chunk of the class, and chunks are concatenated in
//     class order, so the merged flip list is always the ascending-spin
//     order regardless of which shard finished first.
//  3. Flip application is sharded by output range: every shard applies
//     the same ascending flip sequence restricted to its own disjoint
//     slice of y (linalg.AccumulateFlipRange), so each element of y
//     receives the same additions in the same order as a serial sweep.
//
// The trajectory is a pure function of the seed but differs from the
// default update — this is a different algorithm, not a reimplementation
// — so colored runs are pinned for worker-count independence, not for
// bit-identity with the dense path. Op accounting keeps the standard
// event spine (one LocalBatch per selected pair per global iteration),
// which over-charges MVM work relative to the O(flips·degree) sweeps;
// the PPA numbers for colored runs are upper bounds.

// coloredTile is one diagonal pair's colored-update state, built once
// per solver: the pair's symmetric CSR tile and the greedy coloring of
// its sparsity graph (tile-local spin indices).
type coloredTile struct {
	tile    *linalg.CSR
	classes [][]int
}

// coloredNormal returns the standard normal deviate of (step, spin) on
// the given stream: two splitmix64 mixes separate the dimensions, two
// more draw the Box-Muller uniforms. u1 lands in (0,1] so the log is
// finite.
func coloredNormal(stream, step, spin uint64) float64 {
	z := splitmix64(splitmix64(stream^step) ^ spin)
	u1 := (float64(z>>11) + 1) / (1 << 53)
	u2 := float64(splitmix64(z)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// sweepColored runs the local iterations of diagonal pair pi with the
// colored update, sharding each phase over the job's PE pool. yRow is
// re-anchored with an exact product at local iteration 0 (and every
// deltaRefresh iterations), and the pair publishes the exact product
// of its final block as its partial sum, like the delta path.
func (j *jobRun) sweepColored(pi int) {
	rc := j.rc
	cfg := &rc.cfg
	st := j.states[pi]
	ct := rc.colored[pi]
	lo, _ := rc.grid.BlockRange(rc.pairs[pi].Row)
	x, y, off := st.xRow, st.yRow, st.offRow
	t := len(x)
	th := rc.thresholds[lo : lo+t]
	scale := rc.noiseScale[lo : lo+t]
	stream := uint64(seedStream(j.seed, roleColored, pi))
	phi := j.phi
	workers := min(j.pool.width, t)
	if len(st.chunkFlips) < workers {
		st.chunkFlips = make([][]int, workers)
		st.chunkSigns = make([][]float64, workers)
	}
	chunkFlips, chunkSigns := st.chunkFlips, st.chunkSigns
	// anchor recomputes dst = C·x exactly, rows sharded across workers.
	anchor := func(dst []float64) {
		j.pool.parallel(workers, func(part int) {
			ct.tile.ApplyBinaryRange(x, dst, part*t/workers, (part+1)*t/workers)
		})
	}

	refresh := cfg.deltaRefresh()
	for l := 0; l < cfg.LocalIters; l++ {
		if l%refresh == 0 {
			anchor(y)
		}
		for ci, class := range ct.classes {
			step := metrics.U64(((j.iter-1)*cfg.LocalIters+l)*len(ct.classes) + ci)
			// Threshold phase: shards own contiguous chunks of the
			// class; same-class spins share no coupling, so y and the
			// spins they write are untouched by each other.
			parts := min(workers, len(class))
			j.pool.parallel(parts, func(part int) {
				f := chunkFlips[part][:0]
				sg := chunkSigns[part][:0]
				for _, v := range class[part*len(class)/parts : (part+1)*len(class)/parts] {
					xv := y[v] + off[v]
					if phi > 0 {
						xv += coloredNormal(stream, step, uint64(v)) * phi * scale[v]
					}
					var nv float64
					if xv >= th[v] {
						nv = 1
					}
					if d := nv - x[v]; d != 0 {
						f = append(f, v)
						sg = append(sg, d)
						x[v] = nv
					}
				}
				chunkFlips[part] = f
				chunkSigns[part] = sg
			})
			flips, signs := st.rowFlips[:0], st.rowSigns[:0]
			for part := 0; part < parts; part++ {
				flips = append(flips, chunkFlips[part]...)
				signs = append(signs, chunkSigns[part]...)
			}
			st.rowFlips, st.rowSigns = flips, signs
			if len(flips) == 0 {
				continue
			}
			// Apply phase: every shard applies the full ascending flip
			// sequence restricted to its own output range.
			j.pool.parallel(workers, func(part int) {
				from, to := part*t/workers, (part+1)*t/workers
				for k, v := range flips {
					ct.tile.AccumulateFlipRange(y, v, signs[k], from, to)
				}
			})
		}
	}
	// Publish C·x of the final block. On integer couplings every patch
	// was exact, so y already is that product bit for bit (the same
	// argument as the energy tracker's); otherwise recompute it.
	if rc.exactEnergy {
		copy(st.pRowCol, y)
	} else {
		anchor(st.pRowCol)
	}
	rc.quantizeReadout(st.pRowCol)
}
