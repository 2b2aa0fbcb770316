package problem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sophie/internal/graph"
)

// SpecError is a structured problem-spec rejection: Field names the
// JSON path that failed (dotted, e.g. "problem.clauses[3].lits"),
// Reason is a short machine-stable label for metrics, and Msg explains
// it to a human. The service layer surfaces all three in its 400 body
// and labels sophied_spec_rejects_total with Reason.
type SpecError struct {
	Field  string
	Reason string
	Msg    string
}

func (e *SpecError) Error() string {
	if e.Field == "" {
		return e.Msg
	}
	return fmt.Sprintf("%s: %s", e.Field, e.Msg)
}

func specErr(field, reason, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// specLimits bound hostile inputs before any O(n²) lowering work
// happens. They are generous for real use (a 4096-city TSP already
// lowers to 16.7M variables) but keep a malicious spec from allocating
// unboundedly.
const (
	maxSpecVars     = 1 << 22 // lowered variable count
	maxSpecEntries  = 1 << 24 // explicit entries (edges, triplets, literals)
	maxSpecPatterns = 1 << 16
	// maxSpecTerms bounds the quadratic terms a spec may LOWER to, not
	// just the variables it declares. The distinction matters for the
	// dense reductions: a coloring spec with n·k at the variable limit
	// can still imply n·k² one-hot pair terms (billions at k = 2048),
	// and partition/numberpartition lower to complete graphs (n²/2
	// terms). ParseSpec estimates each type's term count from the
	// declared sizes and rejects before any O(terms) allocation happens
	// — found by the FuzzProblemSpec hostile corpus.
	maxSpecTerms = 1 << 25
)

// specGraph is the JSON wire form of a graph: 0-indexed weighted edge
// triplets [u, v, w]. Omitted weights are not supported — triplets are
// fixed-arity to keep parsing strict.
type specGraph struct {
	N     int          `json:"n"`
	Edges [][3]float64 `json:"edges"`
}

// checkGraphBudget holds a graph of order n with m edges to the spec
// limits.
func checkGraphBudget(field string, n, m int) *SpecError {
	if n <= 0 || n > maxSpecVars {
		return specErr(field+".n", "bad_order", "graph order %d out of range [1, %d]", n, maxSpecVars)
	}
	if m > maxSpecEntries {
		return specErr(field+".edges", "too_large", "%d edges exceeds limit %d", m, maxSpecEntries)
	}
	return nil
}

// ReadMaxCut parses a GSET-format graph (graph.Read) into the max-cut
// front end, under the same order and edge budget as a spec graph.
// field names the source in the returned *SpecError.
func ReadMaxCut(r io.Reader, field string) (*MaxCut, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, specErr(field, "bad_graph", "%v", err)
	}
	if serr := checkGraphBudget(field, g.N(), g.M()); serr != nil {
		return nil, serr
	}
	return &MaxCut{G: g}, nil
}

func (sg *specGraph) build(field string) (*graph.Graph, *SpecError) {
	if serr := checkGraphBudget(field, sg.N, len(sg.Edges)); serr != nil {
		return nil, serr
	}
	g := graph.New(sg.N)
	for i, e := range sg.Edges {
		u, v, w := e[0], e[1], e[2]
		if u != float64(int(u)) || v != float64(int(v)) { //sophielint:ignore floateq integrality check is exact
			return nil, specErr(fmt.Sprintf("%s.edges[%d]", field, i), "bad_edge", "endpoints (%v,%v) must be integers", u, v)
		}
		if !isFinite(w) {
			return nil, specErr(fmt.Sprintf("%s.edges[%d]", field, i), "bad_weight", "weight %v is not finite", w)
		}
		if err := g.AddEdge(int(u), int(v), w); err != nil {
			return nil, specErr(fmt.Sprintf("%s.edges[%d]", field, i), "bad_edge", "%v", err)
		}
	}
	return g, nil
}

// rawSpec is the tagged union's envelope; the Type tag picks the
// variant and the remaining fields are variant-specific.
type rawSpec struct {
	Type string `json:"type"`

	// maxcut, partition, coloring
	Graph *specGraph `json:"graph,omitempty"`

	// qubo
	N       int          `json:"n,omitempty"`
	Entries [][3]float64 `json:"entries,omitempty"`
	Offset  float64      `json:"offset,omitempty"`

	// maxsat
	Vars    int          `json:"vars,omitempty"`
	Clauses []specClause `json:"clauses,omitempty"`

	// partition
	BalanceWeight float64 `json:"balance_weight,omitempty"`

	// coloring
	Colors int `json:"colors,omitempty"`

	// numberpartition
	Numbers []float64 `json:"numbers,omitempty"`

	// tsp
	Dist          [][]float64 `json:"dist,omitempty"`
	PenaltyWeight float64     `json:"penalty_weight,omitempty"`

	// hopfield
	Patterns [][]int8 `json:"patterns,omitempty"`
	Probe    []int8   `json:"probe,omitempty"`
}

type specClause struct {
	Lits   []int   `json:"lits"`
	Weight float64 `json:"weight,omitempty"` // 0 defaults to 1
}

// SpecTypes lists the accepted "type" tags, in the order they are
// documented.
func SpecTypes() []string {
	return []string{"qubo", "maxcut", "maxsat", "partition", "coloring", "numberpartition", "tsp", "hopfield"}
}

// ParseSpec decodes a problem-spec JSON document into a Problem front
// end. The document is a tagged union on "type"; unknown fields are
// rejected so typos fail loudly instead of silently defaulting.
// Returned errors are always *SpecError. ParseSpec validates shape and
// budget only — full semantic validation happens in the front end's
// Lower, which also returns field-free errors wrapped by the caller.
func ParseSpec(data []byte) (Problem, error) {
	if len(data) == 0 {
		return nil, specErr("problem", "empty", "empty problem spec")
	}
	var raw rawSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, specErr("problem", "bad_json", "invalid spec JSON: %v", err)
	}
	switch raw.Type {
	case "qubo":
		if raw.N <= 0 || raw.N > maxSpecVars {
			return nil, specErr("problem.n", "bad_order", "order %d out of range [1, %d]", raw.N, maxSpecVars)
		}
		if len(raw.Entries) > maxSpecEntries {
			return nil, specErr("problem.entries", "too_large", "%d entries exceeds limit %d", len(raw.Entries), maxSpecEntries)
		}
		q := &QUBO{N: raw.N, Offset: raw.Offset}
		for i, e := range raw.Entries {
			ri, rj := e[0], e[1]
			if ri != float64(int(ri)) || rj != float64(int(rj)) { //sophielint:ignore floateq integrality check is exact
				return nil, specErr(fmt.Sprintf("problem.entries[%d]", i), "bad_index", "indices (%v,%v) must be integers", ri, rj)
			}
			q.Entries = append(q.Entries, QUBOEntry{I: int(ri), J: int(rj), W: e[2]})
		}
		return q, nil
	case "maxcut":
		g, serr := requireGraph(raw.Graph)
		if serr != nil {
			return nil, serr
		}
		return &MaxCut{G: g}, nil
	case "maxsat":
		if len(raw.Clauses) > maxSpecEntries {
			return nil, specErr("problem.clauses", "too_large", "%d clauses exceeds limit %d", len(raw.Clauses), maxSpecEntries)
		}
		m := &MaxSAT{Vars: raw.Vars}
		lits := 0
		for i, c := range raw.Clauses {
			lits += len(c.Lits)
			if lits > maxSpecEntries {
				return nil, specErr(fmt.Sprintf("problem.clauses[%d]", i), "too_large", "total literal count exceeds limit %d", maxSpecEntries)
			}
			w := c.Weight
			if w == 0 { //sophielint:ignore floateq omitted-weight sentinel
				w = 1
			}
			m.Clauses = append(m.Clauses, Clause{Lits: c.Lits, Weight: w})
		}
		return m, nil
	case "partition":
		g, serr := requireGraph(raw.Graph)
		if serr != nil {
			return nil, serr
		}
		// The balance penalty couples every pair: n²/2 lowered terms.
		if n := int64(g.N()); n*(n-1)/2 > maxSpecTerms {
			return nil, specErr("problem.graph.n", "too_large", "%d nodes lower to %d pair terms (limit %d)", n, n*(n-1)/2, maxSpecTerms)
		}
		return &Partition{G: g, BalanceWeight: raw.BalanceWeight}, nil
	case "coloring":
		g, serr := requireGraph(raw.Graph)
		if serr != nil {
			return nil, serr
		}
		if ok := int64(g.N()) * int64(raw.Colors); raw.Colors > 0 && ok > maxSpecVars {
			return nil, specErr("problem.colors", "too_large", "%d nodes x %d colors lowers to %d variables (limit %d)", g.N(), raw.Colors, ok, maxSpecVars)
		}
		// One-hot rows imply n·k²/2 pair terms, edge constraints |E|·k
		// more — both must stay under the term budget.
		if k := int64(raw.Colors); k > 0 {
			if terms := int64(g.N())*k*k/2 + int64(len(raw.Graph.Edges))*k; terms > maxSpecTerms {
				return nil, specErr("problem.colors", "too_large", "spec lowers to ~%d quadratic terms (limit %d)", terms, maxSpecTerms)
			}
		}
		return &Coloring{G: g, Colors: raw.Colors}, nil
	case "numberpartition":
		// (Σaσ)² couples every pair: n²/2 lowered terms.
		if n := int64(len(raw.Numbers)); n*(n-1)/2 > maxSpecTerms {
			return nil, specErr("problem.numbers", "too_large", "%d numbers lower to %d pair terms (limit %d)", n, n*(n-1)/2, maxSpecTerms)
		}
		return &NumberPartition{Numbers: raw.Numbers}, nil
	case "tsp":
		n := int64(len(raw.Dist))
		if n*n > maxSpecVars {
			return nil, specErr("problem.dist", "too_large", "%d cities lowers to %d variables (limit %d)", n, n*n, maxSpecVars)
		}
		// Distance terms alone are n·(n-1)·n ≈ n³ (every ordered city
		// pair at every cyclic position).
		if n*n*n > maxSpecTerms {
			return nil, specErr("problem.dist", "too_large", "%d cities lower to ~%d quadratic terms (limit %d)", n, n*n*n, maxSpecTerms)
		}
		return &TSP{Dist: raw.Dist, PenaltyWeight: raw.PenaltyWeight}, nil
	case "hopfield":
		if len(raw.Patterns) > maxSpecPatterns {
			return nil, specErr("problem.patterns", "too_large", "%d patterns exceeds limit %d", len(raw.Patterns), maxSpecPatterns)
		}
		if len(raw.Patterns) > 0 {
			// Hebbian couplings are dense: n²/2 terms, each a sum over p
			// patterns.
			if n := int64(len(raw.Patterns[0])); n*(n-1)/2 > maxSpecTerms {
				return nil, specErr("problem.patterns[0]", "too_large", "%d neurons lower to %d pair terms (limit %d)", n, n*(n-1)/2, maxSpecTerms)
			}
		}
		return &Hopfield{Patterns: raw.Patterns, Probe: raw.Probe}, nil
	case "":
		return nil, specErr("problem.type", "missing_type", "missing problem type (one of %v)", SpecTypes())
	default:
		return nil, specErr("problem.type", "unknown_type", "unknown problem type %q (one of %v)", raw.Type, SpecTypes())
	}
}

func requireGraph(sg *specGraph) (*graph.Graph, *SpecError) {
	if sg == nil {
		return nil, specErr("problem.graph", "missing_graph", "missing graph")
	}
	return sg.build("problem.graph")
}
