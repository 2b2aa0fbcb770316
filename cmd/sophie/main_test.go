package main

import (
	"bytes"
	"strings"
	"testing"

	"sophie/internal/graph"
)

func TestRunPreset(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "20", "-runs", "2", "-ops", "-phi", "0.2"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"problem: maxcut, lowered to 100 spins", "job 0:", "job 1:", "best objective over 2 job(s)", "mvm(1b)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunReplicasBatch(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "20",
		"-replicas", "3", "-batch-workers", "2", "-ops", "-phi", "0.2"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"replica 0:", "replica 2:", "batch: best objective", "median", "mvm(1b)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunReplicasPortfolio(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "40", "-phi", "0.2",
		"-replicas", "4", "-target", "-100", "-portfolio"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replicas reached the target") {
		t.Fatalf("portfolio run missing success summary:\n%s", out.String())
	}
	// -portfolio without -replicas/-target must be rejected.
	if err := run([]string{"-preset", "K100", "-portfolio"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("-portfolio without -replicas/-target must fail")
	}
	// A negative replica count must be rejected, not silently ignored.
	if err := run([]string{"-preset", "K100", "-replicas", "-2"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("-replicas -2 must fail")
	}
}

func TestRunStdin(t *testing.T) {
	g, err := graph.Random(40, 120, graph.WeightUnit, 9)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := graph.Write(&in, g); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-tile", "16", "-global", "15"}, &in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "problem: maxcut, lowered to 40 spins") {
		t.Fatalf("stdin path failed:\n%s", out.String())
	}
}

func TestRunDeviceAndFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "10",
		"-device", "-majority", "-skip-transform", "-tiles", "0.5"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "best objective") {
		t.Fatal("device run produced no summary")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "nope"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown preset must fail")
	}
	if err := run([]string{"-graph", "/does/not/exist"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing file must fail")
	}
	if err := run([]string{"-preset", "K100", "-phi", "-3"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("invalid solver config must fail")
	}
	if err := run([]string{}, strings.NewReader("garbage"), &out); err == nil {
		t.Fatal("bad stdin graph must fail")
	}
	// Graphs share the spec order budget, and above the dense compile
	// limit they need -skip-transform.
	if err := run([]string{}, strings.NewReader("4194305 0\n"), &out); err == nil {
		t.Fatal("graph past the spec order budget must fail")
	}
	if err := run([]string{}, strings.NewReader("12000 0\n"), &out); err == nil || !strings.Contains(err.Error(), "-skip-transform") {
		t.Fatalf("sparse-built graph without -skip-transform: got %v", err)
	}
}

func TestRunRankAndAnneal(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "15",
		"-rank", "20", "-phi", "0.4", "-phi-end", "0.05"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "best objective") {
		t.Fatal("rank/anneal run produced no summary")
	}
}

// TestRunTimeoutSequential bounds a long sequential solve: the first
// job stops at an iteration boundary, later jobs are skipped, and the
// stop is reported distinctly from a normal finish.
func TestRunTimeoutSequential(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "5000000",
		"-local", "1", "-runs", "3", "-timeout", "100ms"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"(stopped by timeout)", "skipping 2 remaining job(s)", "best objective over 1 job(s)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunTimeoutReplicas bounds a long batch: every replica stops and
// the batch summary reports the expired budget.
func TestRunTimeoutReplicas(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-preset", "K100", "-tile", "32", "-global", "5000000",
		"-local", "1", "-replicas", "2", "-timeout", "100ms"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"(stopped by timeout)", "replicas stopped early"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}
