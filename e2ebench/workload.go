package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"sophie/internal/problem"
	"sophie/internal/service"
)

// instance is one generated problem together with what the benchmark
// knows about it by construction: its planted optimum and an
// independent copy of its structure (clauses or edges) for verification.
type instance struct {
	raw     json.RawMessage // the spec's "problem" field
	prob    problem.Problem // the same instance as a compiler front end
	optimum float64         // planted optimum of the domain objective
	clauses [][]int         // maxsat: 1-indexed signed literals
	edges   [][2]int        // maxcut: unit-weight edges
	offset  float64         // compile offset: domain objective = energy + offset (SAT)
	n       int             // domain variables (SAT vars or graph nodes)
}

// satisfied counts the clauses the 0/1 assignment satisfies.
func (in *instance) satisfied(bits []int) int {
	n := 0
	for _, c := range in.clauses {
		for _, l := range c {
			if (l > 0 && bits[l-1] == 1) || (l < 0 && bits[-l-1] == 0) {
				n++
				break
			}
		}
	}
	return n
}

// cut counts the edges whose endpoints lie on different sides.
func (in *instance) cut(sides []int) int {
	n := 0
	for _, e := range in.edges {
		if sides[e[0]] != sides[e[1]] {
			n++
		}
	}
	return n
}

// plantedSAT draws a planted-satisfiable random k-SAT instance through
// the repository's own generator, so its optimum (every clause
// satisfied) is known.
func plantedSAT(vars, clauses, k int, seed int64) (*instance, error) {
	p, _, err := problem.RandomKSAT(vars, clauses, k, seed)
	if err != nil {
		return nil, err
	}
	type clause struct {
		Lits []int `json:"lits"`
	}
	spec := struct {
		Type    string   `json:"type"`
		Vars    int      `json:"vars"`
		Clauses []clause `json:"clauses"`
	}{Type: "maxsat", Vars: vars}
	in := &instance{prob: p, optimum: float64(clauses), n: vars}
	for _, c := range p.Clauses {
		lits := append([]int(nil), c.Lits...)
		in.clauses = append(in.clauses, lits)
		spec.Clauses = append(spec.Clauses, clause{Lits: lits})
	}
	if in.raw, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	c, err := problem.Compile(p)
	if err != nil {
		return nil, err
	}
	in.offset = c.Offset
	return in, nil
}

// bipartiteCubic draws a random 3-regular bipartite graph on n nodes
// (n/2 per side, 3n/2 edges) as the union of three edge-disjoint
// random perfect matchings, with node labels shuffled so the sides are
// not contiguous. Every edge crosses the bipartition, so the maximum
// cut is the edge count.
func bipartiteCubic(n int, seed int64) (*instance, error) {
	if n < 8 || n%2 != 0 {
		return nil, fmt.Errorf("bipartite cubic graph needs an even order >= 8, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	half := n / 2
	label := rng.Perm(n)
	var matchings [][]int
	for len(matchings) < 3 {
		m := rng.Perm(half)
		// Repair collisions with earlier matchings by swapping partners.
		for tries := 0; tries < 100*half; tries++ {
			bad := -1
			for u := 0; u < half && bad < 0; u++ {
				for _, prev := range matchings {
					if prev[u] == m[u] {
						bad = u
						break
					}
				}
			}
			if bad < 0 {
				break
			}
			o := rng.Intn(half)
			m[bad], m[o] = m[o], m[bad]
		}
		if clashes(matchings, m) {
			continue
		}
		matchings = append(matchings, m)
	}
	in := &instance{n: n}
	edges := make([][3]float64, 0, 3*half)
	for _, m := range matchings {
		for u, v := range m {
			a, b := label[u], label[half+v]
			in.edges = append(in.edges, [2]int{a, b})
			edges = append(edges, [3]float64{float64(a), float64(b), 1})
		}
	}
	in.optimum = float64(len(in.edges))
	spec := struct {
		Type  string `json:"type"`
		Graph struct {
			N     int          `json:"n"`
			Edges [][3]float64 `json:"edges"`
		} `json:"graph"`
	}{Type: "maxcut"}
	spec.Graph.N = n
	spec.Graph.Edges = edges
	var err error
	if in.raw, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	if in.prob, err = problem.ParseSpec(in.raw); err != nil {
		return nil, err
	}
	return in, nil
}

func clashes(prev [][]int, m []int) bool {
	for u := range m {
		for _, p := range prev {
			if p[u] == m[u] {
				return true
			}
		}
	}
	return false
}

// targetEnergy returns the model energy at which the decoded objective
// reaches frac of the planted optimum.
//
// MAX-SAT lowers to H + offset = unsatisfied weight (plus ancilla
// penalties, which are never negative), so H <= floor((1-frac)·m) -
// offset guarantees at least frac·m satisfied clauses. Max-cut lowers
// with K_uv = -w and no offset, so H = W - 2·cut and cut >= frac·W
// holds exactly when H <= (1 - 2·frac)·W.
func (in *instance) targetEnergy(frac float64) float64 {
	if in.clauses != nil {
		return math.Floor((1-frac)*in.optimum+1e-9) - in.offset + 1e-9
	}
	return (1-2*frac)*in.optimum + 1e-9
}

// workload is one traffic mix: how instances are drawn, how each job is
// configured, and how the in-process service is loaded.
type workload struct {
	name    string
	clients int
	wal     bool
	// pool > 0 draws every job uniformly at random from a fixed pool of
	// that many instances; 0 makes every job a fresh instance.
	pool int
	gen  func(seed int64) (*instance, error)
	// spec renders one job of the instance.
	spec func(in *instance, jobSeed int64) service.JobSpec
	// replay is the number of jobs the traced run replays layer by layer.
	replay int
	// warm is a fixed small instance run once during set-up by
	// fresh-instance workloads (pool workloads warm with their pool).
	warm func() (*instance, error)
}

func intp(v int) *int           { return &v }
func boolp(v bool) *bool        { return &v }
func floatp(v float64) *float64 { return &v }

// sizes scales a workload's instances; tests use a small variant.
type sizes struct {
	satVars, satClauses int // sat-tts
	mixVars, mixClauses int // serve-mix
	cutNodes            int // sparse-cut
	satIters            int // sat-tts global-iteration cap
}

var fullSizes = sizes{satVars: 64, satClauses: 192, mixVars: 30, mixClauses: 120, cutNodes: 20000, satIters: 500}

func workloads(sz sizes) map[string]*workload {
	return map[string]*workload{
		"sat-tts": {
			name:    "sat-tts",
			clients: 1,
			gen: func(seed int64) (*instance, error) {
				return plantedSAT(sz.satVars, sz.satClauses, 3, seed)
			},
			spec: func(in *instance, jobSeed int64) service.JobSpec {
				return service.JobSpec{
					Problem: in.raw, Replicas: 4, Seed: jobSeed, EarlyStop: true,
					Config: service.ConfigOverrides{
						TileSize: intp(64), GlobalIters: intp(sz.satIters), SkipTransform: boolp(true),
						TargetEnergy: floatp(in.targetEnergy(0.95)),
					},
				}
			},
			replay: 6,
			warm:   func() (*instance, error) { return plantedSAT(30, 120, 3, 7) },
		},
		"serve-mix": {
			name:    "serve-mix",
			clients: 2,
			wal:     true,
			pool:    16,
			gen: func(seed int64) (*instance, error) {
				return plantedSAT(sz.mixVars, sz.mixClauses, 3, seed)
			},
			spec: func(in *instance, jobSeed int64) service.JobSpec {
				return service.JobSpec{
					Problem: in.raw, Replicas: 1, Seed: jobSeed,
					Config: service.ConfigOverrides{GlobalIters: intp(30)},
				}
			},
			replay: 16,
		},
		"sparse-cut": {
			name:    "sparse-cut",
			clients: 1,
			gen: func(seed int64) (*instance, error) {
				return bipartiteCubic(sz.cutNodes, seed)
			},
			spec: func(in *instance, jobSeed int64) service.JobSpec {
				return service.JobSpec{
					Problem: in.raw, Replicas: 1, Seed: jobSeed,
					Config: service.ConfigOverrides{
						TileSize: intp(1024), GlobalIters: intp(20), SkipTransform: boolp(true),
					},
				}
			},
			replay: 2,
			warm:   func() (*instance, error) { return bipartiteCubic(2048, 7) },
		},
	}
}

// mix derives a well-spread 63-bit seed from a workload seed and a
// path of indices (splitmix64 finalizer per step); never negative.
func mix(seed int64, path ...int64) int64 {
	z := uint64(seed)
	for _, p := range path {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}
