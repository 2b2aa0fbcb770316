package linalg_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sophie/internal/graph"
	"sophie/internal/linalg"
	"sophie/internal/problem"
)

// eigenDigest is the FNV-64a of the bits EigenSym and PRISTransform
// produce for one input: eigenvalues, eigenvectors (row-major), and the
// transform at α = 0 and α = 1.
type eigenDigest struct {
	values, vectors, pris0, pris1 uint64
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func digestEigen(t *testing.T, k *linalg.Matrix) eigenDigest {
	t.Helper()
	values, vectors, err := linalg.EigenSym(k)
	if err != nil {
		t.Fatal(err)
	}
	d := eigenDigest{values: hashFloats(values), vectors: hashFloats(vectors.Data())}
	for _, alpha := range []float64{0, 1} {
		c, err := linalg.PRISTransform(k, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if alpha == 0 {
			d.pris0 = hashFloats(c.Data())
		} else {
			d.pris1 = hashFloats(c.Data())
		}
	}
	return d
}

// goldenSym returns a symmetric n×n matrix of standard normal entries.
func goldenSym(n int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// TestEigenSymGolden pins EigenSym and PRISTransform bit for bit on the
// shapes the solver feeds them: a lowered 3-SAT model (150 spins,
// quarter-integer couplings), core's 100-node unit max-cut, a matrix
// with an all-zero row and column (tred2's scale == 0 branch), a
// diagonal matrix (tqli converges at once), the smallest orders, and a
// random dense float matrix. Any restructuring of the solver must keep
// every element's arithmetic in the same order, so these never change.
func TestEigenSymGolden(t *testing.T) {
	cases := []struct {
		name   string
		matrix func(t *testing.T) *linalg.Matrix
		want   eigenDigest
	}{
		{"ksat-150", func(t *testing.T) *linalg.Matrix {
			p, _, err := problem.RandomKSAT(30, 120, 3, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := problem.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			if n := c.Model.N(); n != 150 {
				t.Fatalf("lowered 3-SAT has %d spins, want 150", n)
			}
			return c.Model.Coupling()
		}, eigenDigest{values: 0x9d7dbe0d5230eeda, vectors: 0x12262bcffe19ca13, pris0: 0x49c4bd1fd835ce67, pris1: 0xe0ac6a10e5286675}},
		{"maxcut-100", func(t *testing.T) *linalg.Matrix {
			g, err := graph.Random(100, 600, graph.WeightUnit, 31)
			if err != nil {
				t.Fatal(err)
			}
			return g.CouplingMatrix()
		}, eigenDigest{values: 0x5dbaca365e99bf98, vectors: 0x8b77499c240bbde1, pris0: 0xaaab410cac55338e, pris1: 0xd6e7b4effb6e64a}},
		{"zero-row", func(*testing.T) *linalg.Matrix {
			m := goldenSym(9, 4)
			for j := 0; j < 9; j++ {
				m.Set(4, j, 0)
				m.Set(j, 4, 0)
			}
			return m
		}, eigenDigest{values: 0xc379bd5a975bff55, vectors: 0x49b02946286c3d8d, pris0: 0x6b69026d6398de1, pris1: 0xccdd29196cf2be28}},
		{"diagonal", func(*testing.T) *linalg.Matrix {
			m := linalg.NewMatrix(6, 6)
			for i, v := range []float64{3, -1.5, 0.25, 7, -4, 1} {
				m.Set(i, i, v)
			}
			return m
		}, eigenDigest{values: 0x8fce55bcfbe32fc4, vectors: 0xfb137a7658760285, pris0: 0x77f6e2a3913e6e9e, pris1: 0x77f6e2a3913e6e9e}},
		{"n1", func(*testing.T) *linalg.Matrix { return goldenSym(1, 1) }, eigenDigest{values: 0x78086803e35558a6, vectors: 0xaab1693229ba1db8, pris0: 0xa8c7f832281a39c5, pris1: 0xa8c7f832281a39c5}},
		{"n2", func(*testing.T) *linalg.Matrix { return goldenSym(2, 2) }, eigenDigest{values: 0x22937d76711135e0, vectors: 0xa88b809d305c32a5, pris0: 0xcb14b04ba594ad18, pris1: 0x129127c0277bcf98}},
		{"n3", func(*testing.T) *linalg.Matrix { return goldenSym(3, 3) }, eigenDigest{values: 0x24089040111dfb1, vectors: 0xc1acb006e1920eb9, pris0: 0x82a3f7c4d8481e39, pris1: 0x9e6faf5216fd60b7}},
		{"dense-17", func(*testing.T) *linalg.Matrix { return goldenSym(17, 17) }, eigenDigest{values: 0xfe86f3b43bdce1e1, vectors: 0xa8ddf557d5d430f9, pris0: 0x4c60b8497fccaa02, pris1: 0xe06b28616dca49ca}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := digestEigen(t, tc.matrix(t)); got != tc.want {
				t.Errorf("digest %#v, want %#v", got, tc.want)
			}
		})
	}
}
