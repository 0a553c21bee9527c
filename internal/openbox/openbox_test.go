package openbox

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/nn"
)

func randNet(seed int64, sizes ...int) *nn.Network {
	return nn.New(rand.New(rand.NewSource(seed)), sizes...)
}

func randVec(rng *rand.Rand, d int) mat.Vec {
	v := make(mat.Vec, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestExtractMatchesNetworkAtInstance(t *testing.T) {
	n := randNet(1, 6, 10, 8, 4)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		x := randVec(rng, 6)
		loc, err := Extract(n, x)
		if err != nil {
			t.Fatal(err)
		}
		if !loc.Logits(x).EqualApprox(n.Logits(x), 1e-9) {
			t.Fatalf("local logits %v != network logits %v", loc.Logits(x), n.Logits(x))
		}
	}
}

func TestExtractValidAcrossRegion(t *testing.T) {
	// The affine map must hold at *other* points of the same region, not
	// just at the probe.
	n := randNet(3, 4, 8, 3)
	rng := rand.New(rand.NewSource(4))
	x := randVec(rng, 4)
	loc, err := Extract(n, x)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for trial := 0; trial < 200; trial++ {
		y := x.Clone()
		for i := range y {
			y[i] += 1e-6 * rng.NormFloat64()
		}
		if !sameRegion(n, x, y) {
			continue
		}
		hits++
		if !loc.Logits(y).EqualApprox(n.Logits(y), 1e-9) {
			t.Fatalf("affine map wrong inside region at %v", y)
		}
	}
	if hits == 0 {
		t.Fatal("no same-region neighbours found; test ineffective")
	}
}

func TestExtractWrongDim(t *testing.T) {
	n := randNet(5, 3, 2)
	if _, err := Extract(n, mat.Vec{1, 2}); err == nil {
		t.Fatal("expected error on wrong input length")
	}
}

func TestPatternKeyDistinguishes(t *testing.T) {
	a := []bool{true, false, true}
	b := []bool{true, true, true}
	if PatternKey(a) == PatternKey(b) {
		t.Fatal("different patterns share a key")
	}
	if PatternKey(a) != PatternKey([]bool{true, false, true}) {
		t.Fatal("equal patterns have different keys")
	}
	// Length participates in the key.
	if PatternKey([]bool{}) == PatternKey([]bool{false}) {
		t.Fatal("length not distinguished")
	}
}

func TestCoreParamsAntisymmetric(t *testing.T) {
	n := randNet(6, 5, 7, 3)
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, 5)
	loc, err := Extract(n, x)
	if err != nil {
		t.Fatal(err)
	}
	d01, b01 := loc.CoreParams(0, 1)
	d10, b10 := loc.CoreParams(1, 0)
	if !d01.EqualApprox(d10.Scale(-1), 1e-12) || b01 != -b10 {
		t.Fatal("core params not antisymmetric")
	}
	dSelf, bSelf := loc.CoreParams(2, 2)
	if dSelf.Norm2() != 0 || bSelf != 0 {
		t.Fatal("self core params should vanish")
	}
}

func TestDecisionFeaturesMatchDefinition(t *testing.T) {
	n := randNet(8, 4, 6, 3)
	rng := rand.New(rand.NewSource(9))
	x := randVec(rng, 4)
	loc, err := Extract(n, x)
	if err != nil {
		t.Fatal(err)
	}
	C := loc.Classes()
	for c := 0; c < C; c++ {
		want := mat.NewVec(loc.Dim())
		for cp := 0; cp < C; cp++ {
			if cp == c {
				continue
			}
			d, _ := loc.CoreParams(c, cp)
			want.AddInPlace(d)
		}
		want.ScaleInPlace(1 / float64(C-1))
		if got := loc.DecisionFeatures(c); !got.EqualApprox(want, 1e-12) {
			t.Fatalf("class %d: D_c %v != definition %v", c, got, want)
		}
	}
}

func TestDecisionBiasMatchesDefinition(t *testing.T) {
	n := randNet(10, 3, 5, 4)
	rng := rand.New(rand.NewSource(11))
	x := randVec(rng, 3)
	loc, err := Extract(n, x)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < loc.Classes(); c++ {
		var want float64
		for cp := 0; cp < loc.Classes(); cp++ {
			if cp == c {
				continue
			}
			_, b := loc.CoreParams(c, cp)
			want += b
		}
		want /= float64(loc.Classes() - 1)
		if got := loc.DecisionBias(c); !almost(got, want, 1e-12) {
			t.Fatalf("class %d: bias %v != %v", c, got, want)
		}
	}
}

func almost(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return d <= tol*(1+abs(a)+abs(b))
}

func TestClassOutOfRangePanics(t *testing.T) {
	n := randNet(12, 2, 3, 2)
	loc, err := Extract(n, mat.Vec{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { loc.DecisionFeatures(7) },
		func() { loc.CoreParams(0, -1) },
		func() { loc.DecisionBias(2) },
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

// sameRegion reports whether two instances share a locally linear region of
// the network (identical activation patterns): the white-box oracle the
// region tests check Extract against.
func sameRegion(n *nn.Network, a, b mat.Vec) bool {
	return slices.Equal(n.ActivationPattern(a), n.ActivationPattern(b))
}

// TestSameRegionReflexive: the oracle puts an instance in its own region,
// so the tests that skip pairs it separates are not vacuous.
func TestSameRegionReflexive(t *testing.T) {
	n := randNet(13, 4, 6, 2)
	rng := rand.New(rand.NewSource(14))
	x := randVec(rng, 4)
	if !sameRegion(n, x, x) {
		t.Fatal("instance not in its own region")
	}
}

// Property: Extract's affine map reproduces the network's logits at the
// probe for random architectures and inputs (exactness of ground truth).
func TestPropertyExtractExactEverywhere(t *testing.T) {
	f := func(seed int64, arch8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := int(arch8%4) + 2
		hidden := int(arch8%5) + 3
		n := nn.New(rng, d, hidden, hidden/2+2, 3)
		x := randVec(rng, d)
		loc, err := Extract(n, x)
		if err != nil {
			return false
		}
		return loc.Logits(x).EqualApprox(n.Logits(x), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: two instances in the same region get identical decision
// features — the consistency guarantee the paper builds on.
func TestPropertyConsistentAcrossRegion(t *testing.T) {
	n := randNet(15, 5, 9, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, 5)
		y := x.Clone()
		for i := range y {
			y[i] += 1e-8 * rng.NormFloat64()
		}
		if !sameRegion(n, x, y) {
			return true // vacuous
		}
		lx, err := Extract(n, x)
		if err != nil {
			return false
		}
		ly, err := Extract(n, y)
		if err != nil {
			return false
		}
		if lx.Key != ly.Key {
			return false
		}
		for c := 0; c < lx.Classes(); c++ {
			if !lx.DecisionFeatures(c).EqualApprox(ly.DecisionFeatures(c), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
