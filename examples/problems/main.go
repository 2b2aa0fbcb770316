// Combinatorial problems beyond max-cut: the paper's introduction
// motivates Ising machines with routing, scheduling, and circuit design
// workloads. This example compiles minimum vertex cover and graph
// k-coloring (Lucas 2014) onto Ising models whose linear terms ride the
// solver's native field, solves both with the SOPHIE recurrence, and
// decodes the answers with their feasibility reports.
package main

import (
	"fmt"
	"log"

	"sophie"
)

func main() {
	// A ring of 8 nodes plus two chords; the minimum cover has 4 nodes.
	ring := ringGraph(8)
	if err := ring.AddEdge(0, 4, 1); err != nil {
		log.Fatal(err)
	}
	if err := ring.AddEdge(2, 6, 1); err != nil {
		log.Fatal(err)
	}
	cover := solve(&sophie.VertexCover{G: ring})
	fmt.Printf("vertex cover: %v (size %.0f, feasible=%v)\n",
		cover.Assignment.(*sophie.VertexSetSolution).Vertices, cover.Objective, cover.Feasible)

	// A 5-cycle needs 3 colors.
	coloring := solve(&sophie.Coloring{G: ringGraph(5), Colors: 3})
	fmt.Printf("5-cycle 3-coloring: %v (feasible=%v)\n",
		coloring.Assignment.(*sophie.ColoringSolution).Colors, coloring.Feasible)
}

func ringGraph(n int) *sophie.Graph {
	g := sophie.NewGraph(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n, 1); err != nil {
			log.Fatal(err)
		}
	}
	return g
}

// solve compiles p, runs a batch of eight replicas with an annealed
// noise schedule (explore, then settle), and decodes the lowest-energy
// spins.
func solve(p sophie.Problem) *sophie.Solution {
	c, err := sophie.Compile(p)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sophie.DefaultConfig()
	cfg.TileSize = 16
	cfg.GlobalIters = 400
	cfg.Phi = 0.8
	cfg.PhiEnd = 0.02
	solver, err := sophie.NewSolver(c.Model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	seeds, err := sophie.SeedRange(1, 8)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := solver.RunBatch(seeds, sophie.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := p.Decode(batch.Best().BestSpins)
	if err != nil {
		log.Fatal(err)
	}
	return sol
}
