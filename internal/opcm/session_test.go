package opcm

import (
	"math"
	"sync"
	"testing"

	"sophie/internal/tiling"
)

func noisyEngine(t *testing.T, noise float64) *Engine {
	t.Helper()
	params := DefaultParams()
	params.ReadNoise = noise
	e, err := NewEngine(randomTiles(16, 3, 77), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineImplementsSessionEngine(t *testing.T) {
	var _ tiling.SessionEngine = &Engine{}
	var _ tiling.SessionEngine = &DriftEngine{}
}

// TestSessionDeterministicPerSeed: a session's noise is a pure function
// of its seed — two sessions with the same seed produce bit-identical
// outputs, different seeds (almost surely) differ.
func TestSessionDeterministicPerSeed(t *testing.T) {
	e := noisyEngine(t, 0.05)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i%2) - 0.5
	}
	run := func(seed int64) []float64 {
		ses := e.Session(seed)
		out := make([]float64, 0, 3*16)
		y := make([]float64, 16)
		for p := 0; p < 3; p++ {
			ses.Mul(p, false, x, y)
			out = append(out, y...)
			ses.Mul(p, true, x, y)
			out = append(out, y...)
		}
		return out
	}
	a, b := run(11), run(11)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("same seed, output %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

// TestSessionsAreScheduleIndependent: concurrent sessions over one
// engine neither race (-race build) nor perturb each other — each
// session's outputs match a session run alone with the same seed.
func TestSessionsAreScheduleIndependent(t *testing.T) {
	e := noisyEngine(t, 0.05)
	x := make([]float64, 16)
	for i := range x {
		x[i] = 1
	}
	sequence := func(ses tiling.Engine) []float64 {
		out := make([]float64, 0, 64*16)
		y := make([]float64, 16)
		for k := 0; k < 64; k++ {
			ses.Mul(k%3, k%2 == 0, x, y)
			out = append(out, y...)
		}
		return out
	}
	const sessions = 8
	refs := make([][]float64, sessions)
	for i := range refs {
		refs[i] = sequence(e.Session(int64(i)))
	}
	got := make([][]float64, sessions)
	var wg sync.WaitGroup
	wg.Add(sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			defer wg.Done()
			//sophielint:ignore globalrand Session never draws from the engine's own stream: each call seeds a fresh per-session stream, which is what this test proves
			got[i] = sequence(e.Session(int64(i)))
		}(i)
	}
	wg.Wait()
	for i := range refs {
		for j := range refs[i] {
			if math.Float64bits(refs[i][j]) != math.Float64bits(got[i][j]) {
				t.Fatalf("session %d output %d perturbed by siblings: %v vs %v", i, j, refs[i][j], got[i][j])
			}
		}
	}
}

// TestSessionNoiselessMatchesEngine: with ReadNoise 0 a session is the
// deterministic datapath — bit-identical to the engine's own Mul.
func TestSessionNoiselessMatchesEngine(t *testing.T) {
	e := noisyEngine(t, 0)
	ses := e.Session(99)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) / 16
	}
	want := make([]float64, 16)
	got := make([]float64, 16)
	for p := 0; p < 3; p++ {
		e.Mul(p, false, x, want)
		ses.Mul(p, false, x, got)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("noiseless session diverges from engine at %d: %v vs %v", i, want[i], got[i])
			}
		}
	}
}

// TestDriftSessionAppliesDrift: a session over a DriftEngine must see
// the drift decay (the override guards against the promoted
// Engine.Session silently dropping it).
func TestDriftSessionAppliesDrift(t *testing.T) {
	d, err := NewDriftEngine(randomTiles(16, 1, 5), 0, DefaultParams(), 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = 1
	}
	fresh := make([]float64, 16)
	d.Session(1).Mul(0, false, x, fresh)
	d.Tick(1e6) // age the array so the decay is well above float noise
	aged := make([]float64, 16)
	d.Session(1).Mul(0, false, x, aged)
	f := d.driftFactor(1e6)
	if f >= 1 {
		t.Fatal("test setup: drift factor must decay")
	}
	for i := range fresh {
		if math.Abs(aged[i]-f*fresh[i]) > 1e-12*math.Abs(fresh[i])+1e-15 {
			t.Fatalf("aged session output %d = %v, want %v decayed by %v", i, aged[i], fresh[i], f)
		}
	}
}

// TestSessionCounts: per-session op attribution.
func TestSessionCounts(t *testing.T) {
	e := noisyEngine(t, 0.05)
	ses := e.Session(3).(*Session)
	x := make([]float64, 16)
	y := make([]float64, 16)
	ses.Mul(0, false, x, y)
	ses.Mul(1, true, x, y)
	ses.QuantizeReadout(y)
	c := ses.Counts()
	if c.MVMs != 2 {
		t.Fatalf("MVMs = %d, want 2", c.MVMs)
	}
	if c.NoiseDraws != 32 {
		t.Fatalf("NoiseDraws = %d, want 32", c.NoiseDraws)
	}
	if c.ReadoutQuantizations != 1 {
		t.Fatalf("ReadoutQuantizations = %d, want 1", c.ReadoutQuantizations)
	}
	if ses.TileSize() != 16 || ses.Pairs() != 3 {
		t.Fatal("session geometry does not match the engine")
	}
}
