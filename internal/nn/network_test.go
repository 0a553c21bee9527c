package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestReLUMask(t *testing.T) {
	m := ReLUMask(mat.Vec{-1, 0, 2})
	if m[0] || m[1] || !m[2] {
		t.Fatalf("mask = %v", m)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := Softmax(mat.Vec{1, 2, 3})
	if !almost(p.Sum(), 1, 1e-12) {
		t.Fatalf("sum = %v", p.Sum())
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("ordering lost: %v", p)
	}
}

func TestSoftmaxStableForHugeLogits(t *testing.T) {
	p := Softmax(mat.Vec{1e4, 1e4 + 1})
	if p.HasNaN() {
		t.Fatalf("softmax overflow: %v", p)
	}
	if !almost(p.Sum(), 1, 1e-12) {
		t.Fatalf("sum = %v", p.Sum())
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if got := Softmax(mat.Vec{}); len(got) != 0 {
		t.Fatalf("Softmax(empty) = %v", got)
	}
}

func TestCrossEntropyFloor(t *testing.T) {
	if v := CrossEntropy(mat.Vec{0, 1}, 0); math.IsInf(v, 0) {
		t.Fatal("CrossEntropy of zero probability must be finite")
	}
	if v := CrossEntropy(mat.Vec{1, 0}, 0); v != 0 {
		t.Fatalf("CrossEntropy of certain prediction = %v", v)
	}
}

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 4, 8, 3)
	if n.InputDim() != 4 || n.Classes() != 3 || n.NumLayers() != 2 {
		t.Fatalf("dims: in=%d classes=%d layers=%d", n.InputDim(), n.Classes(), n.NumLayers())
	}
	if got := n.HiddenSizes(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("HiddenSizes = %v", got)
	}
}

func TestNewPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fn := range []func(){
		func() { New(rng, 4) },
		func() { New(rng, 4, 0, 2) },
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

func TestPredictIsProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 5, 7, 4)
	x := mat.Vec{0.1, -0.2, 0.3, 0.4, -0.5}
	p := n.Predict(x)
	if len(p) != 4 {
		t.Fatalf("len = %d", len(p))
	}
	if !almost(p.Sum(), 1, 1e-12) {
		t.Fatalf("sum = %v", p.Sum())
	}
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
	}
	if n.PredictLabel(x) != p.ArgMax() {
		t.Fatal("PredictLabel disagrees with argmax of Predict")
	}
}

func TestForwardPanicsOnWrongDim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Predict(mat.Vec{1, 2})
}

func TestFromLayersValidation(t *testing.T) {
	w1 := mat.FromRows(mat.Vec{1, 0}, mat.Vec{0, 1})
	good := Layer{W: w1, B: mat.Vec{0, 0}}
	n := FromLayers(good, Layer{W: mat.FromRows(mat.Vec{1, 1}), B: mat.Vec{0}})
	if n.Classes() != 1 || n.InputDim() != 2 {
		t.Fatal("FromLayers shapes wrong")
	}
	for _, fn := range []func(){
		func() { FromLayers() },
		func() { FromLayers(Layer{W: w1, B: mat.Vec{0}}) }, // bias mismatch
		func() { // chain mismatch
			FromLayers(good, Layer{W: mat.FromRows(mat.Vec{1, 1, 1}), B: mat.Vec{0}})
		},
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

func TestFromLayersClones(t *testing.T) {
	w := mat.FromRows(mat.Vec{1, 2})
	b := mat.Vec{3}
	n := FromLayers(Layer{W: w, B: b})
	w.Set(0, 0, 99)
	b[0] = 99
	l := n.Layer(0)
	if l.W.At(0, 0) != 1 || l.B[0] != 3 {
		t.Fatal("FromLayers aliased caller data")
	}
}

func TestActivationPatternLength(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(rng, 6, 10, 5, 3)
	pat := n.ActivationPattern(mat.NewVec(6).Fill(0.5))
	if len(pat) != 15 {
		t.Fatalf("pattern length = %d, want 15", len(pat))
	}
}

// A hand-built network where the locally linear behaviour is known exactly:
// one hidden layer, identity-ish weights.
func handNet() *Network {
	// hidden: z1 = [x0 - x1, x0 + x1], ReLU
	w1 := mat.FromRows(mat.Vec{1, -1}, mat.Vec{1, 1})
	// output: two classes, z2 = [a0, a1]
	w2 := mat.FromRows(mat.Vec{1, 0}, mat.Vec{0, 1})
	return FromLayers(
		Layer{W: w1, B: mat.Vec{0, 0}},
		Layer{W: w2, B: mat.Vec{0, 0}},
	)
}

func TestHandNetworkLogits(t *testing.T) {
	n := handNet()
	// x = (2, 1): z1 = (1, 3), both active, logits = (1, 3).
	got := n.Logits(mat.Vec{2, 1})
	if !got.EqualApprox(mat.Vec{1, 3}, 1e-15) {
		t.Fatalf("logits = %v", got)
	}
	// x = (1, 2): z1 = (-1, 3) -> ReLU (0, 3), logits = (0, 3).
	got = n.Logits(mat.Vec{1, 2})
	if !got.EqualApprox(mat.Vec{0, 3}, 1e-15) {
		t.Fatalf("logits = %v", got)
	}
}

func TestInputGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(rng, 4, 6, 3)
	x := mat.Vec{0.3, -0.1, 0.7, 0.2}
	const h = 1e-6
	for c := 0; c < 3; c++ {
		g := n.InputGradient(x, c)
		for i := range x {
			xp, xm := x.Clone(), x.Clone()
			xp[i] += h
			xm[i] -= h
			fd := (n.Logits(xp)[c] - n.Logits(xm)[c]) / (2 * h)
			if math.Abs(fd-g[i]) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("class %d dim %d: grad %v vs fd %v", c, i, g[i], fd)
			}
		}
	}
}

func TestInputGradientBadClassPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := New(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.InputGradient(mat.Vec{0, 0}, 5)
}

func TestAccuracy(t *testing.T) {
	n := handNet()
	xs := []mat.Vec{{2, 1}, {1, 2}} // labels by construction: argmax class 1 in both
	if acc := n.Accuracy(xs, []int{1, 1}); acc != 1 {
		t.Fatalf("acc = %v", acc)
	}
	if acc := n.Accuracy(xs, []int{0, 1}); acc != 0.5 {
		t.Fatalf("acc = %v", acc)
	}
	if acc := n.Accuracy(nil, nil); acc != 0 {
		t.Fatalf("empty acc = %v", acc)
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := New(rng, 3, 4, 2)
	c := n.Clone()
	x := mat.Vec{0.1, 0.2, 0.3}
	before := n.Logits(x)
	// Mutate the clone's first layer.
	cl := c.layers[0]
	cl.W.Set(0, 0, cl.W.At(0, 0)+10)
	after := n.Logits(x)
	if !before.EqualApprox(after, 0) {
		t.Fatal("mutating clone changed original")
	}
}

// Property: softmax output is shift invariant: softmax(z) == softmax(z + k).
func TestPropertySoftmaxShiftInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(n8 uint8, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 100 {
			shift = 7
		}
		c := int(n8%8) + 2
		z := make(mat.Vec, c)
		for i := range z {
			z[i] = rng.NormFloat64() * 3
		}
		zs := z.Clone()
		for i := range zs {
			zs[i] += shift
		}
		return Softmax(z).EqualApprox(Softmax(zs), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the PLNN is exactly locally linear — for two points with the
// same activation pattern, logits(midpoint) equals the affine interpolation.
func TestPropertyLocalLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := New(rng, 5, 8, 4, 3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make(mat.Vec, 5)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		// A tiny perturbation almost surely stays in the same region.
		y := x.Clone()
		for i := range y {
			y[i] += 1e-9 * r.NormFloat64()
		}
		px := n.ActivationPattern(x)
		py := n.ActivationPattern(y)
		for i := range px {
			if px[i] != py[i] {
				return true // different region: vacuously fine
			}
		}
		mid := x.Add(y).ScaleInPlace(0.5)
		want := n.Logits(x).Add(n.Logits(y)).ScaleInPlace(0.5)
		return n.Logits(mid).EqualApprox(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
