package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestHypercubeContains(t *testing.T) {
	h := NewHypercube(mat.Vec{0, 0}, 2) // [-1,1]^2
	cases := []struct {
		p  mat.Vec
		in bool
	}{
		{mat.Vec{0, 0}, true},
		{mat.Vec{1, 1}, true},  // boundary closed
		{mat.Vec{-1, 1}, true}, // boundary
		{mat.Vec{1.01, 0}, false},
		{mat.Vec{0, -1.5}, false},
		{mat.Vec{0}, false}, // wrong dimension
	}
	for _, c := range cases {
		if got := h.Contains(c.p); got != c.in {
			t.Fatalf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
}

func TestHypercubeNegativeEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHypercube(mat.Vec{0}, -1)
}

func TestHypercubeCenterIsCopied(t *testing.T) {
	c := mat.Vec{1, 2}
	h := NewHypercube(c, 1)
	c[0] = 99
	if h.Center[0] != 1 {
		t.Fatal("NewHypercube aliased caller's center")
	}
}

func TestSampleStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHypercube(mat.Vec{3, -2, 0.5}, 0.1)
	for i := 0; i < 500; i++ {
		p := h.Sample(rng)
		if !h.Contains(p) {
			t.Fatalf("sample %v escaped cube %+v", p, h)
		}
	}
}

func TestSampleNCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHypercube(mat.Vec{0}, 1)
	ps := h.SampleN(rng, 7)
	if len(ps) != 7 {
		t.Fatalf("SampleN returned %d points", len(ps))
	}
}

func TestSampleIsReproducible(t *testing.T) {
	h := NewHypercube(mat.Vec{0, 0}, 1)
	a := h.SampleN(rand.New(rand.NewSource(42)), 3)
	b := h.SampleN(rand.New(rand.NewSource(42)), 3)
	for i := range a {
		if !a[i].EqualApprox(b[i], 0) {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestSampleCoversCube(t *testing.T) {
	// Mean of many uniform samples should approach the center, and the
	// extremes should approach the faces.
	rng := rand.New(rand.NewSource(3))
	h := NewHypercube(mat.Vec{1}, 2) // [0, 2]
	n := 20000
	var sum, lo, hi float64
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		x := h.Sample(rng)[0]
		sum += x
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean = %v, want ~1", mean)
	}
	if lo > 0.01 || hi < 1.99 {
		t.Fatalf("range [%v, %v] does not cover the cube", lo, hi)
	}
}

func TestAxisPairs(t *testing.T) {
	x := mat.Vec{1, 2}
	pairs := AxisPairs(x, 0.5)
	if len(pairs) != 2 {
		t.Fatalf("len = %d", len(pairs))
	}
	if pairs[0][0][0] != 1.5 || pairs[0][1][0] != 0.5 {
		t.Fatalf("axis 0 pair = %v", pairs[0])
	}
	if pairs[1][0][1] != 2.5 || pairs[1][1][1] != 1.5 {
		t.Fatalf("axis 1 pair = %v", pairs[1])
	}
	// Off-axis coordinates untouched.
	if pairs[0][0][1] != 2 || pairs[1][0][0] != 1 {
		t.Fatal("off-axis coordinate modified")
	}
	// Original untouched.
	if x[0] != 1 || x[1] != 2 {
		t.Fatal("AxisPairs mutated input")
	}
}

func TestLinearPath(t *testing.T) {
	path := LinearPath(mat.Vec{0, 0}, mat.Vec{2, 4}, 4)
	if len(path) != 5 {
		t.Fatalf("len = %d", len(path))
	}
	if !path[0].EqualApprox(mat.Vec{0, 0}, 0) || !path[4].EqualApprox(mat.Vec{2, 4}, 0) {
		t.Fatal("endpoints wrong")
	}
	if !path[2].EqualApprox(mat.Vec{1, 2}, 1e-15) {
		t.Fatalf("midpoint = %v", path[2])
	}
}

func TestLinearPathPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { LinearPath(mat.Vec{0}, mat.Vec{0, 1}, 2) },
		func() { LinearPath(mat.Vec{0}, mat.Vec{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// gaussianVec draws a d-dimensional vector with N(0, sd^2) entries.
func gaussianVec(rng *rand.Rand, d int, sd float64) mat.Vec {
	v := make(mat.Vec, d)
	for i := range v {
		v[i] = sd * rng.NormFloat64()
	}
	return v
}

// Property: every point from SampleN lies inside the cube, for random cubes.
func TestPropertySamplesInsideCube(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(d8 uint8, edge float64) bool {
		d := int(d8%10) + 1
		if math.IsNaN(edge) || math.IsInf(edge, 0) || edge < 0 || edge > 1e6 {
			edge = 1
		}
		c := gaussianVec(rng, d, 3)
		h := NewHypercube(c, edge)
		for _, p := range h.SampleN(rng, 20) {
			if !h.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AxisPairs points differ from x only along one axis, by exactly h.
func TestPropertyAxisPairsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(d8 uint8) bool {
		d := int(d8%12) + 1
		x := gaussianVec(rng, d, 1)
		h := 0.25
		for i, pair := range AxisPairs(x, h) {
			for j := 0; j < d; j++ {
				want := x[j]
				if j == i {
					if pair[0][j] != x[j]+h || pair[1][j] != x[j]-h {
						return false
					}
					continue
				}
				if pair[0][j] != want || pair[1][j] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
