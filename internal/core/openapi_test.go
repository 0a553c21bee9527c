package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/api"
	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

func randVec(rng *rand.Rand, d int) mat.Vec {
	v := make(mat.Vec, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func plnnModel(seed int64, sizes ...int) *openbox.PLNN {
	return &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(seed)), sizes...)}
}

// exactness asserts OpenAPI's recovered D_c matches the white-box ground
// truth within tol.
func assertExact(t *testing.T, model plm.RegionModel, o *OpenAPI, x mat.Vec, tol float64) *plm.Interpretation {
	t.Helper()
	truth, err := model.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	c := model.Predict(x).ArgMax()
	got, err := o.Interpret(model, x, c)
	if err != nil {
		t.Fatal(err)
	}
	want := truth.DecisionFeatures(c)
	if dist := got.Features.L1Dist(want); dist > tol {
		t.Fatalf("L1Dist(D_c) = %v > %v (iters %d, edge %g)", dist, tol, got.Iterations, got.FinalEdge)
	}
	return got
}

func TestOpenAPIExactOnPLNN(t *testing.T) {
	model := plnnModel(1, 6, 12, 8, 4)
	o := New(Config{Seed: 2})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		x := randVec(rng, 6)
		got := assertExact(t, model, o, x, 1e-5)
		if !got.Exact {
			t.Fatal("interpretation not marked exact")
		}
	}
}

func TestOpenAPIExactOnLMT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Checkerboard forces a genuine tree with several leaves.
	xs := make([]mat.Vec, 0, 400)
	ys := make([]int, 0, 400)
	for i := 0; i < 100; i++ {
		for _, q := range []struct {
			cx, cy float64
			label  int
		}{{2, 2, 0}, {-2, -2, 0}, {2, -2, 1}, {-2, 2, 1}} {
			xs = append(xs, mat.Vec{q.cx + rng.NormFloat64()*0.5, q.cy + rng.NormFloat64()*0.5})
			ys = append(ys, q.label)
		}
	}
	tree, err := lmt.Train(rng, xs, ys, 2, lmt.Config{
		MinLeaf: 20, MaxDepth: 6, LogReg: lmt.LogRegConfig{Epochs: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() < 2 {
		t.Fatalf("want a real tree, got %d leaves", tree.NumLeaves())
	}
	o := New(Config{Seed: 5})
	for trial := 0; trial < 10; trial++ {
		x := mat.Vec{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		assertExact(t, tree, o, x, 1e-6)
	}
}

func TestOpenAPIRecoversCoreParams(t *testing.T) {
	// Beyond D_c: every (D_{c,c'}, B_{c,c'}) pair must match ground truth.
	model := plnnModel(6, 5, 10, 3)
	o := New(Config{Seed: 7})
	rng := rand.New(rand.NewSource(8))
	x := randVec(rng, 5)
	truth, err := model.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	c := 0
	got, err := o.Interpret(model, x, c)
	if err != nil {
		t.Fatal(err)
	}
	for cp := 0; cp < model.Classes(); cp++ {
		if cp == c {
			if got.PairDiffs[cp] != nil {
				t.Fatal("self pair should be nil")
			}
			continue
		}
		wantD, wantB := truth.CoreParams(c, cp)
		if dist := got.PairDiffs[cp].L1Dist(wantD); dist > 1e-5 {
			t.Fatalf("pair (%d,%d): D L1Dist %v", c, cp, dist)
		}
		if diff := got.Biases[cp] - wantB; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("pair (%d,%d): B diff %v", c, cp, diff)
		}
	}
}

func TestOpenAPIConsistentWithinRegion(t *testing.T) {
	// Two instances in the same region must get bitwise-identical ground
	// truth and near-identical OpenAPI interpretations.
	model := plnnModel(9, 4, 8, 3)
	o := New(Config{Seed: 10})
	rng := rand.New(rand.NewSource(11))
	var x, y mat.Vec
	for {
		x = randVec(rng, 4)
		y = x.Clone()
		for i := range y {
			y[i] += 1e-7 * rng.NormFloat64()
		}
		if model.RegionKey(x) == model.RegionKey(y) {
			break
		}
	}
	c := model.Predict(x).ArgMax()
	ix, err := o.Interpret(model, x, c)
	if err != nil {
		t.Fatal(err)
	}
	iy, err := o.Interpret(model, y, c)
	if err != nil {
		t.Fatal(err)
	}
	if cs := ix.Features.Cosine(iy.Features); cs < 1-1e-9 {
		t.Fatalf("cosine similarity within region = %v, want ~1", cs)
	}
	if dist := ix.Features.L1Dist(iy.Features); dist > 1e-5 {
		t.Fatalf("within-region L1 gap = %v", dist)
	}
}

func TestOpenAPIShrinksNearBoundary(t *testing.T) {
	// An instance very close to a region boundary needs a small hypercube:
	// iterations must exceed 1 and the final edge must have shrunk.
	model := plnnModel(15, 4, 8, 3)
	rng := rand.New(rand.NewSource(16))
	// Find a boundary by bisecting between two instances in different
	// regions. Stop at ~1e-4 of the boundary: close enough that the initial
	// hypercube must shrink several times, but not numerically ON the
	// boundary (where the paper's probability-0 failure case lives and no
	// float64 method can certify an answer).
	var a, b mat.Vec
	for {
		a, b = randVec(rng, 4), randVec(rng, 4)
		if model.RegionKey(a) != model.RegionKey(b) {
			break
		}
	}
	for i := 0; i < 14; i++ {
		mid := a.Add(b).ScaleInPlace(0.5)
		if model.RegionKey(mid) == model.RegionKey(a) {
			a = mid
		} else {
			b = mid
		}
	}
	o := New(Config{Seed: 17})
	got, err := o.Interpret(model, a, 0)
	if err != nil {
		t.Fatalf("near-boundary interpretation failed: %v", err)
	}
	if got.Iterations <= 1 {
		t.Fatalf("expected adaptive shrinking near boundary, iterations = %d", got.Iterations)
	}
	if got.FinalEdge >= 1.0 {
		t.Fatalf("edge did not shrink: %g", got.FinalEdge)
	}
	truth, err := model.LocalAt(a)
	if err != nil {
		t.Fatal(err)
	}
	want := truth.DecisionFeatures(0)
	if dist := got.Features.L1Dist(want); dist > 1e-4 {
		t.Fatalf("near-boundary L1Dist = %v", dist)
	}
}

func TestOpenAPIInputValidation(t *testing.T) {
	model := plnnModel(18, 3, 4, 2)
	o := New(Config{Seed: 19})
	if _, err := o.Interpret(model, mat.Vec{1}, 0); err == nil {
		t.Fatal("wrong instance length accepted")
	}
	if _, err := o.Interpret(model, mat.Vec{1, 2, 3}, 9); err == nil {
		t.Fatal("bad class accepted")
	}
	if _, err := o.InterpretAll(model, mat.Vec{1}); err == nil {
		t.Fatal("InterpretAll accepted bad length")
	}
}

func TestOpenAPINoConvergenceBudget(t *testing.T) {
	// With MaxIterations = 0 resolving to default this can't be tested, so
	// use 1 iteration against an adversarial "model" that is never locally
	// linear (logistic of a quadratic), which keeps every system
	// inconsistent.
	o := New(Config{MaxIterations: 3, Seed: 20, Tolerance: 1e-12})
	_, err := o.Interpret(quadModel{}, mat.Vec{0.3, -0.2}, 0)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

// quadModel is softmax over a quadratic score — NOT a PLM, so Ω never
// becomes consistent and OpenAPI must exhaust its budget.
type quadModel struct{}

func (quadModel) Dim() int     { return 2 }
func (quadModel) Classes() int { return 2 }
func (quadModel) Predict(x mat.Vec) mat.Vec {
	s := x[0]*x[0] + 3*x[1]*x[1] + x[0]*x[1]
	return nn.Softmax(mat.Vec{s, -s})
}

func TestOpenAPIDefaultConfig(t *testing.T) {
	// The zero-value interpreter must work (defaults applied lazily).
	model := plnnModel(21, 3, 5, 2)
	var o OpenAPI
	rng := rand.New(rand.NewSource(22))
	x := randVec(rng, 3)
	got, err := o.Interpret(model, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Features == nil {
		t.Fatal("nil features")
	}
	if o.Name() != "OpenAPI" {
		t.Fatalf("Name = %q", o.Name())
	}
}

func TestOpenAPIQueryAccounting(t *testing.T) {
	model := plnnModel(23, 4, 6, 3)
	counter := api.NewCounter(model)
	o := New(Config{Seed: 24})
	rng := rand.New(rand.NewSource(25))
	x := randVec(rng, 4)
	got, err := o.Interpret(counter, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got.Queries) != counter.Count() {
		t.Fatalf("reported %d queries, model saw %d", got.Queries, counter.Count())
	}
	// 1 center + (d + ExtraChecks) per iteration; default ExtraChecks is 2.
	want := 1 + got.Iterations*(model.Dim()+2)
	if got.Queries != want {
		t.Fatalf("queries = %d, want %d", got.Queries, want)
	}
}

func TestInterpretAllMatchesPerClass(t *testing.T) {
	model := plnnModel(26, 4, 8, 4)
	rng := rand.New(rand.NewSource(27))
	x := randVec(rng, 4)
	truth, err := model.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{Seed: 28})
	all, err := o.InterpretAll(model, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("got %d interpretations", len(all))
	}
	for c, interp := range all {
		want := truth.DecisionFeatures(c)
		if dist := interp.Features.L1Dist(want); dist > 1e-4 {
			t.Fatalf("class %d: L1Dist %v", c, dist)
		}
		// Pair consistency: D_{c,c'} = -D_{c',c}.
		for cp := 0; cp < 4; cp++ {
			if cp == c {
				continue
			}
			a := interp.PairDiffs[cp]
			b := all[cp].PairDiffs[c]
			if !a.EqualApprox(b.Scale(-1), 1e-7) {
				t.Fatalf("pair antisymmetry broken between %d and %d", c, cp)
			}
		}
	}
}

func TestOpenAPIThroughQueryCache(t *testing.T) {
	// Wrapping the model in the response cache plmserve -cache mounts must
	// not change results (samples are a.s. distinct, but the center is
	// queried once only).
	model := plnnModel(29, 4, 6, 3)
	cached, err := api.NewResponseCache(model, 64)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{Seed: 30})
	rng := rand.New(rand.NewSource(31))
	x := randVec(rng, 4)
	a, err := o.Interpret(model, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	o2 := New(Config{Seed: 30})
	b, err := o2.Interpret(cached, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Features.EqualApprox(b.Features, 1e-12) {
		t.Fatal("cache changed the interpretation")
	}
	if misses := cached.StoreStats().Misses; misses != int64(b.Queries) {
		t.Fatalf("cache saw %d misses, want one per query (%d)", misses, b.Queries)
	}
}

func TestOpenAPIExactOnScoreOnlyBinaryAPI(t *testing.T) {
	// Many real services expose only P(positive | x). The Binary adapter
	// turns that into a 2-class Model, and OpenAPI must stay exact —
	// the paper's sigmoid special case.
	model := plnnModel(90, 4, 8, 2)
	scoreAPI := plm.NewBinary(func(x mat.Vec) float64 {
		return model.Predict(x)[1]
	}, 4)
	o := New(Config{Seed: 91})
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 5; trial++ {
		x := randVec(rng, 4)
		truth, err := model.LocalAt(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Interpret(scoreAPI, x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if dist := got.Features.L1Dist(truth.DecisionFeatures(1)); dist > 1e-5 {
			t.Fatalf("score-only API L1Dist = %v", dist)
		}
	}
}

// Property: exactness on random small PLNNs — the headline guarantee.
func TestPropertyOpenAPIExactOnRandomPLNNs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + int(uint(seed)%3)
		model := &openbox.PLNN{Net: nn.New(rng, d, 7, 5, 3)}
		x := randVec(rng, d)
		truth, err := model.LocalAt(x)
		if err != nil {
			return false
		}
		c := model.Predict(x).ArgMax()
		o := New(Config{RNG: rng})
		got, err := o.Interpret(model, x, c)
		if err != nil {
			return false
		}
		return got.Features.L1Dist(truth.DecisionFeatures(c)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the recovered log-odds model predicts the API's log odds at
// fresh points within the same region.
func TestPropertyRecoveredModelPredictsLogOdds(t *testing.T) {
	model := plnnModel(32, 4, 9, 3)
	o := New(Config{Seed: 33})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, 4)
		c := 0
		got, err := o.Interpret(model, x, c)
		if err != nil {
			return false
		}
		// Probe a point very close to x (a.s. same region).
		probe := x.Clone()
		for i := range probe {
			probe[i] += 1e-9 * rng.NormFloat64()
		}
		if model.RegionKey(probe) != model.RegionKey(x) {
			return true // vacuous
		}
		p := model.Predict(probe)
		for cp := 0; cp < 3; cp++ {
			if cp == c {
				continue
			}
			pred := got.PairDiffs[cp].Dot(probe) + got.Biases[cp]
			want := plm.LogOdds(p, c, cp)
			if diff := pred - want; diff > 1e-5 || diff < -1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// scalarOnly hides a model's batch fast path, forcing plm.PredictAll down
// the per-instance fallback.
type scalarOnly struct{ plm.Model }

// TestInterpretBitIdenticalOverBatchedForward pins the PR-3 contract on the
// interpreter side: OpenAPI's probe batches now ride the model's batched
// GEMM forward (plm.BatchPredictor on openbox.PLNN), and the recovered
// interpretation must be bit-identical to the one computed against the same
// model with the batch path hidden — the fast path is a throughput
// decision, never a numerics change.
func TestInterpretBitIdenticalOverBatchedForward(t *testing.T) {
	model := plnnModel(71, 6, 12, 8, 3)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 5; trial++ {
		x := randVec(rng, 6)
		c := model.Predict(x).ArgMax()
		// Identical seeds draw identical sample sets; only the predict path
		// differs.
		viaBatch, err := New(Config{Seed: 100 + int64(trial)}).Interpret(model, x, c)
		if err != nil {
			t.Fatal(err)
		}
		viaScalar, err := New(Config{Seed: 100 + int64(trial)}).Interpret(scalarOnly{model}, x, c)
		if err != nil {
			t.Fatal(err)
		}
		if viaBatch.Iterations != viaScalar.Iterations || viaBatch.Queries != viaScalar.Queries {
			t.Fatalf("trial %d: batch path %d iters/%d queries, scalar %d/%d",
				trial, viaBatch.Iterations, viaBatch.Queries, viaScalar.Iterations, viaScalar.Queries)
		}
		for i := range viaScalar.Features {
			if viaBatch.Features[i] != viaScalar.Features[i] {
				t.Fatalf("trial %d feature %d: %v != %v (bit-exact)",
					trial, i, viaBatch.Features[i], viaScalar.Features[i])
			}
		}
	}
}

// errBatchDown is what failingBatchModel's batch endpoint answers.
var errBatchDown = errors.New("batch endpoint down")

// failingBatchModel answers single predictions but fails every batch.
type failingBatchModel struct{ plm.Model }

func (failingBatchModel) PredictBatch([]mat.Vec) ([]mat.Vec, error) { return nil, errBatchDown }

// TestFailedBatchReturnsItsError: a model whose batch endpoint fails gets
// that error back from Interpret, InterpretWithPrediction and every
// instance of Pool.InterpretMany, never an Interpretation built from
// per-instance retries.
func TestFailedBatchReturnsItsError(t *testing.T) {
	model := plnnModel(91, 6, 8, 3)
	rng := rand.New(rand.NewSource(92))
	xs := []mat.Vec{randVec(rng, 6), randVec(rng, 6)}
	down := failingBatchModel{model}
	c := model.Predict(xs[0]).ArgMax()
	if in, err := New(Config{Seed: 93}).Interpret(down, xs[0], c); !errors.Is(err, errBatchDown) || in != nil {
		t.Fatalf("Interpret = %v, %v; want errBatchDown", in, err)
	}
	if in, err := New(Config{Seed: 93}).InterpretWithPrediction(down, xs[0], model.Predict(xs[0]), c); !errors.Is(err, errBatchDown) || in != nil {
		t.Fatalf("InterpretWithPrediction = %v, %v; want errBatchDown", in, err)
	}
	for _, r := range NewPool(Config{Seed: 94}, 2).InterpretMany(down, xs) {
		if !errors.Is(r.Err, errBatchDown) || r.Interp != nil {
			t.Fatalf("instance %d: %v, %v; want errBatchDown", r.Index, r.Interp, r.Err)
		}
	}
}
