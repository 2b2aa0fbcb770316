package graph

import (
	"fmt"
	"math/rand"
)

// The generators below follow the Rudy graph generator conventions the
// paper uses for its benchmarks (Section IV-A, Table I): GSET-style
// sparse random graphs and complete "K-graphs" with random edge weights.
// The original GSET files are not available offline, so G1/G22 stand-ins
// are generated with the same order, size, and weight distribution under
// fixed seeds; see DESIGN.md for the substitution rationale.

// WeightScheme selects how edge weights are drawn.
type WeightScheme int

const (
	// WeightUnit assigns every edge weight +1 (GSET G1/G22 style).
	WeightUnit WeightScheme = iota
	// WeightPM1 assigns ±1 uniformly at random (GSET G11+ style).
	WeightPM1
	// WeightUniform assigns integer weights uniformly in [-10, 10]\{0}.
	WeightUniform
)

func (s WeightScheme) String() string {
	switch s {
	case WeightUnit:
		return "unit"
	case WeightPM1:
		return "pm1"
	case WeightUniform:
		return "uniform"
	default:
		return fmt.Sprintf("WeightScheme(%d)", int(s))
	}
}

func drawWeight(s WeightScheme, rng *rand.Rand) float64 {
	switch s {
	case WeightUnit:
		return 1
	case WeightPM1:
		if rng.Intn(2) == 0 {
			return -1
		}
		return 1
	case WeightUniform:
		// Uniform over {-10..-1, 1..10}.
		w := rng.Intn(20) // 0..19
		if w < 10 {
			return float64(w - 10) // -10..-1
		}
		return float64(w - 9) // 1..10
	default:
		panic(fmt.Sprintf("graph: unknown weight scheme %d", int(s)))
	}
}

// Random generates a sparse random graph with exactly m distinct edges,
// Rudy "rnd_graph" style. It returns an error if m exceeds the number of
// possible edges. Generation is deterministic for a given seed.
func Random(n, m int, scheme WeightScheme, seed int64) (*Graph, error) {
	maxEdges := n * (n - 1) / 2
	if m < 0 || m > maxEdges {
		return nil, fmt.Errorf("graph: cannot place %d edges in a %d-node graph (max %d)", m, n, maxEdges)
	}
	g := New(n)
	rng := rand.New(rand.NewSource(seed))
	// Rejection sampling is fast for the sparse graphs we target
	// (GSET densities are a few percent). Fall back to dense
	// enumeration when the requested density is high.
	if float64(m) > 0.4*float64(maxEdges) {
		type pair struct{ u, v int }
		all := make([]pair, 0, maxEdges)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				all = append(all, pair{u, v})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, p := range all[:m] {
			if err := g.AddEdge(p.u, p.v, drawWeight(scheme, rng)); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v, drawWeight(scheme, rng)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// RandomRegular generates a uniformly random simple d-regular graph on
// n nodes via the configuration model: every node gets d stubs, the
// stubs are shuffled and paired, and the whole pairing is retried from
// scratch if it produces a self-loop or parallel edge. For fixed d the
// acceptance probability tends to e^(-(d²-1)/4) — a constant number of
// O(n·d) attempts — so million-node instances generate in seconds.
// n·d must be even and d < n. Generation is deterministic for a given
// seed.
func RandomRegular(n, d int, scheme WeightScheme, seed int64) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: node count must be positive, got %d", n)
	}
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graph: degree %d outside [0,%d) for %d nodes", d, n, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n·d = %d·%d is odd; a %d-regular graph on %d nodes does not exist", n, d, d, n)
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]int, n*d)
	pairs := make([][2]int, 0, n*d/2)
	seen := make(map[[2]int]struct{}, n*d/2)
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		pairs = pairs[:0]
		clear(seen)
		simple := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				simple = false
				break
			}
			key := edgeKey(u, v)
			if _, dup := seen[key]; dup {
				simple = false
				break
			}
			seen[key] = struct{}{}
			pairs = append(pairs, key)
		}
		if !simple {
			continue
		}
		g := New(n)
		for _, p := range pairs {
			w := drawWeight(scheme, rng)
			for w == 0 {
				w = drawWeight(scheme, rng)
			}
			if err := g.AddEdge(p[0], p[1], w); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	return nil, fmt.Errorf("graph: no simple %d-regular pairing found in %d attempts", d, maxAttempts)
}

// Complete generates the complete graph K_n with random edge weights,
// the paper's "K-graph" workload (K100, K16384, K32768 in Table I).
func Complete(n int, scheme WeightScheme, seed int64) *Graph {
	g := New(n)
	rng := rand.New(rand.NewSource(seed))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := drawWeight(scheme, rng)
			for w == 0 {
				w = drawWeight(scheme, rng)
			}
			// AddEdge cannot fail here: u<v in range, w != 0.
			if err := g.AddEdge(u, v, w); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// Toroidal generates a w x h toroidal 2D grid with ±1 weights, the Rudy
// "toroidal_grid_2D" family that appears elsewhere in GSET. Included for
// benchmark coverage beyond the paper's two instance families.
func Toroidal(w, h int, seed int64) *Graph {
	n := w * h
	g := New(n)
	rng := rand.New(rand.NewSource(seed))
	id := func(x, y int) int { return ((y+h)%h)*w + (x+w)%w }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := id(x, y)
			for _, v := range []int{id(x+1, y), id(x, y+1)} {
				if u == v || g.HasEdge(u, v) {
					continue
				}
				if err := g.AddEdge(u, v, drawWeight(WeightPM1, rng)); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// Benchmark instance identifiers matching Table I of the paper.
const (
	seedG1  = 53100 // fixed seeds make the stand-ins reproducible
	seedG22 = 53122
	seedK   = 53199
)

// G1Standin returns a synthetic stand-in for GSET G1: 800 nodes, 19176
// unit-weight edges.
func G1Standin() *Graph {
	g, err := Random(800, 19176, WeightUnit, seedG1)
	if err != nil {
		panic(err) // parameters are static and valid
	}
	return g
}

// G22Standin returns a synthetic stand-in for GSET G22: 2000 nodes,
// 19990 unit-weight edges (~1% density).
func G22Standin() *Graph {
	g, err := Random(2000, 19990, WeightUnit, seedG22)
	if err != nil {
		panic(err)
	}
	return g
}

// KGraph returns the complete graph on n nodes with ±1 random weights,
// as generated by Rudy for the paper's K100/K16384/K32768 workloads.
func KGraph(n int) *Graph {
	return Complete(n, WeightPM1, seedK+int64(n))
}

// Instance describes a named benchmark graph (Table I).
type Instance struct {
	Name        string
	Nodes       int
	Description string
	Build       func() *Graph
}

// TableI returns the paper's benchmark set. The two large K-graphs are
// listed with builders but are typically consumed through the analytic
// timing model rather than materialized (building K32768 allocates ~540M
// edges).
func TableI() []Instance {
	return []Instance{
		{Name: "G1", Nodes: 800, Description: "From GSET dataset (synthetic stand-in)", Build: G1Standin},
		{Name: "G22", Nodes: 2000, Description: "From GSET dataset (synthetic stand-in)", Build: G22Standin},
		{Name: "K100", Nodes: 100, Description: "Randomly generated complete graph", Build: func() *Graph { return KGraph(100) }},
		{Name: "K16384", Nodes: 16384, Description: "Randomly generated complete graph", Build: func() *Graph { return KGraph(16384) }},
		{Name: "K32768", Nodes: 32768, Description: "Randomly generated complete graph", Build: func() *Graph { return KGraph(32768) }},
	}
}

// Preset returns a named instance the CLIs and the service accept as a
// preset: G1, G22 (the GSET stand-ins) or K100.
func Preset(name string) (*Graph, error) {
	switch name {
	case "G1":
		return G1Standin(), nil
	case "G22":
		return G22Standin(), nil
	case "K100":
		return KGraph(100), nil
	}
	return nil, fmt.Errorf("unknown preset %q (want G1, G22, or K100)", name)
}
