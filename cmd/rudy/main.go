// Command rudy generates benchmark instances: graphs in GSET text
// format covering the families the paper evaluates (Table I) —
// Rudy-style sparse random graphs, complete K-graphs with random
// weights, toroidal grids, planted-partition block models — plus named
// presets for the paper's exact instances, and planted-satisfiable
// random k-SAT emitted as problem-spec JSON for `sophie -problem`.
//
// Usage:
//
//	rudy -type random -n 800 -m 19176 -weights unit -seed 1 > g.txt
//	rudy -preset G22 -o g22.txt
//	rudy -type complete -n 100 -weights pm1
//	rudy -type planted -n 200 -pin 0.2 -pout 0.02 > sbm.txt
//	rudy -type ksat -n 50 -m 150 -k 3 | sophie -problem -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"sophie/internal/graph"
	"sophie/internal/problem"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rudy:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rudy", flag.ContinueOnError)
	var (
		typ     = fs.String("type", "random", "instance family: random | complete | toroidal | planted | ksat")
		n       = fs.Int("n", 100, "number of nodes (random/complete/planted) or variables (ksat)")
		m       = fs.Int("m", 0, "number of edges (random; default 5% density) or clauses (ksat; default 4n)")
		w       = fs.Int("w", 8, "torus width (toroidal)")
		h       = fs.Int("h", 8, "torus height (toroidal)")
		pin     = fs.Float64("pin", 0.2, "intra-community edge probability (planted)")
		pout    = fs.Float64("pout", 0.02, "cross-community edge probability (planted)")
		k       = fs.Int("k", 3, "clause width (ksat)")
		weights = fs.String("weights", "unit", "edge weights: unit | pm1 | uniform")
		seed    = fs.Int64("seed", 1, "generator seed")
		preset  = fs.String("preset", "", "named instance: G1 | G22 | K100 (overrides other flags)")
		out     = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	var err error
	if *preset != "" {
		if g, err = graph.Preset(*preset); err != nil {
			return err
		}
	} else {
		var scheme graph.WeightScheme
		switch *weights {
		case "unit":
			scheme = graph.WeightUnit
		case "pm1":
			scheme = graph.WeightPM1
		case "uniform":
			scheme = graph.WeightUniform
		default:
			return fmt.Errorf("unknown weight scheme %q (unit, pm1, uniform)", *weights)
		}
		switch *typ {
		case "random":
			edges := *m
			if edges == 0 {
				edges = *n * (*n - 1) / 40 // 5% density default
			}
			g, err = graph.Random(*n, edges, scheme, *seed)
			if err != nil {
				return err
			}
		case "complete":
			g = graph.Complete(*n, scheme, *seed)
		case "toroidal":
			g = graph.Toroidal(*w, *h, *seed)
		case "planted":
			var sides []int
			g, sides, err = graph.PlantedPartition(*n, *pin, *pout, *seed)
			if err != nil {
				return err
			}
			// The planted ground truth goes to stderr so the GSET stream
			// stays pipeable into sophie.
			half := 0
			for _, s := range sides {
				if s == 0 {
					half++
				}
			}
			fmt.Fprintf(os.Stderr, "rudy: planted partition %d/%d nodes (pin %g, pout %g)\n",
				half, *n-half, *pin, *pout)
		case "ksat":
			return writeKSAT(stdout, *out, *n, *m, *k, *seed)
		default:
			return fmt.Errorf("unknown type %q (random, complete, toroidal, planted, ksat)", *typ)
		}
	}

	if *out == "" {
		return graph.Write(stdout, g)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	// A failed close on the write path loses data; it must not be dropped.
	return f.Close()
}

// writeKSAT emits a planted-satisfiable k-SAT instance as problem-spec
// JSON ({"type":"maxsat",...}), directly consumable by
// `sophie -problem -` or POST /v1/jobs. The planted optimum (all m
// clauses satisfiable) goes to stderr.
func writeKSAT(stdout io.Writer, outFile string, vars, clauses, width int, seed int64) error {
	if clauses == 0 {
		clauses = 4 * vars
	}
	p, _, err := problem.RandomKSAT(vars, clauses, width, seed)
	if err != nil {
		return err
	}
	spec := struct {
		Type    string `json:"type"`
		Vars    int    `json:"vars"`
		Clauses []struct {
			Lits []int `json:"lits"`
		} `json:"clauses"`
	}{Type: "maxsat", Vars: p.Vars}
	for _, c := range p.Clauses {
		spec.Clauses = append(spec.Clauses, struct {
			Lits []int `json:"lits"`
		}{Lits: c.Lits})
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	fmt.Fprintf(os.Stderr, "rudy: planted-satisfiable %d-SAT, %d vars, %d clauses (optimum %d)\n",
		width, vars, clauses, clauses)
	if outFile == "" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(outFile, data, 0o644)
}
