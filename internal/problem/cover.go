package problem

import (
	"fmt"

	"sophie/internal/graph"
)

// VertexCover is minimum vertex cover: pick the fewest nodes of G such
// that every edge has at least one chosen endpoint. Variable xᵥ = 1
// puts v in the cover (Lucas §4.3):
//
//	H = A·Σ_{(u,v)∈E} (1−x_u)(1−x_v) + Σ_v x_v
//
// Edge weights are ignored; an edge is a constraint. Dropping a node
// from a cover saves 1 and uncovers at least one edge, so any A > 1
// keeps every optimum a cover. Lower uses A = 2: one more than the
// largest node cost, all costs being 1 (DESIGN.md "Problem compiler",
// penalty rule 4).
type VertexCover struct {
	G *graph.Graph
}

// IndependentSet is maximum independent set, the complement of vertex
// cover: pick the most nodes of G with no edge between two chosen
// ones. Lowered as the minimization (Lucas §4.2)
//
//	H = −Σ_v x_v + A·Σ_{(u,v)∈E} x_u·x_v
//
// Adding a node to a set gains 1 and breaks at least one edge, so any
// A > 1 keeps every optimum independent; Lower uses A = 2, by the same
// rule as VertexCover. At a feasible state the set size is
// −(Model.Energy + Offset).
type IndependentSet struct {
	G *graph.Graph
}

// VertexSetSolution is the decoded answer of VertexCover and
// IndependentSet: the chosen nodes in increasing order. The objective
// is their count, minimized for a cover and maximized for an
// independent set.
type VertexSetSolution struct {
	Vertices []int `json:"vertices"`
}

// vertexSetPenalty is the constraint weight A of both front ends.
const vertexSetPenalty = 2

// Type implements Problem.
func (p *VertexCover) Type() string { return "vertexcover" }

// Lower implements Problem. Expanding A·(1−x_u)(1−x_v) gives
// A − A·x_u − A·x_v + A·x_u·x_v per edge.
func (p *VertexCover) Lower() (*IR, error) {
	if err := checkGraph("vertexcover", p.G); err != nil {
		return nil, err
	}
	ir := NewIR(p.G.N())
	for v := 0; v < p.G.N(); v++ {
		ir.AddLinear(v, 1)
	}
	for _, e := range p.G.Edges() {
		ir.AddLinear(e.U, -vertexSetPenalty)
		ir.AddLinear(e.V, -vertexSetPenalty)
		ir.AddQuad(e.U, e.V, vertexSetPenalty)
		ir.Offset += vertexSetPenalty
	}
	return ir, nil
}

// Decode implements Problem: feasible iff every edge is covered.
func (p *VertexCover) Decode(spins []int8) (*Solution, error) {
	set, err := decodeVertexSet(p.G, spins)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, e := range p.G.Edges() {
		if spins[e.U] != 1 && spins[e.V] != 1 {
			violations = addViolation(violations, "edge (%d,%d) is uncovered", e.U, e.V)
		}
	}
	return set.solution(p.Type(), violations), nil
}

// Type implements Problem.
func (p *IndependentSet) Type() string { return "independentset" }

// Lower implements Problem.
func (p *IndependentSet) Lower() (*IR, error) {
	if err := checkGraph("independentset", p.G); err != nil {
		return nil, err
	}
	ir := NewIR(p.G.N())
	for v := 0; v < p.G.N(); v++ {
		ir.AddLinear(v, -1)
	}
	for _, e := range p.G.Edges() {
		ir.AddQuad(e.U, e.V, vertexSetPenalty)
	}
	return ir, nil
}

// Decode implements Problem: feasible iff no edge joins two chosen
// nodes.
func (p *IndependentSet) Decode(spins []int8) (*Solution, error) {
	set, err := decodeVertexSet(p.G, spins)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, e := range p.G.Edges() {
		if spins[e.U] == 1 && spins[e.V] == 1 {
			violations = addViolation(violations, "edge (%d,%d) joins two chosen nodes", e.U, e.V)
		}
	}
	return set.solution(p.Type(), violations), nil
}

func checkGraph(typ string, g *graph.Graph) error {
	if g == nil || g.N() == 0 {
		return fmt.Errorf("%s: empty graph", typ)
	}
	return nil
}

// decodeVertexSet reads the chosen nodes (spin +1) of a vertex-set
// problem over g.
func decodeVertexSet(g *graph.Graph, spins []int8) (*VertexSetSolution, error) {
	if err := checkGraph("vertex set", g); err != nil {
		return nil, err
	}
	if err := checkSpins(spins, g.N()); err != nil {
		return nil, err
	}
	set := &VertexSetSolution{Vertices: []int{}}
	for v := 0; v < g.N(); v++ {
		if spins[v] == 1 {
			set.Vertices = append(set.Vertices, v)
		}
	}
	return set, nil
}

func (s *VertexSetSolution) solution(typ string, violations []string) *Solution {
	return &Solution{
		Type:       typ,
		Objective:  float64(len(s.Vertices)),
		Feasible:   len(violations) == 0,
		Violations: violations,
		Assignment: s,
	}
}
