package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/sample"
)

// interpretSerialReference is Algorithm 1 as interpret ran it before the
// factor moved under the probe round trip: every round allocates a fresh
// design matrix and factors it only after the probes have returned
// (solveAllSerial).
func (o *OpenAPI) interpretSerialReference(model plm.Model, x0 mat.Vec, c int) (*plm.Interpretation, error) {
	o.cfg.setDefaults()
	y0s, err := plm.PredictAll(model, []mat.Vec{x0})
	if err != nil {
		return nil, err
	}
	y0 := y0s[0]
	d := model.Dim()
	C := model.Classes()
	queries := 1
	r := o.cfg.InitialEdge
	for iter := 1; iter <= o.cfg.MaxIterations; iter++ {
		pts := sample.NewHypercube(x0, r).SampleN(o.cfg.RNG, d+o.cfg.ExtraChecks)
		ys, err := plm.PredictAll(model, pts)
		if err != nil {
			return nil, err
		}
		queries += len(pts)
		pairs, ok := o.solveAllSerial(x0, y0, pts, ys, c, C)
		if !ok {
			r /= o.cfg.ShrinkFactor
			continue
		}
		biases := make([]float64, C)
		diffs := make([]mat.Vec, C)
		for cp, pr := range pairs {
			if pr != nil {
				diffs[cp], biases[cp] = pr.D, pr.B
			}
		}
		return &plm.Interpretation{
			Class: c, Features: assembleDc(pairs, c, C, d), PairDiffs: diffs, Biases: biases,
			Samples: pts, Queries: queries, Iterations: iter, FinalEdge: r, Exact: true,
		}, nil
	}
	return nil, ErrNoConvergence
}

// solveAllSerial is the serial factor-then-solve of one round the
// reference loop runs, on freshly allocated matrices.
func (o *OpenAPI) solveAllSerial(x0 mat.Vec, y0 mat.Vec, pts []mat.Vec, ys []mat.Vec, c, C int) ([]*pairSolution, bool) {
	n := len(x0) + 1
	eqX := append([]mat.Vec{x0}, pts...)
	eqY := append([]mat.Vec{y0}, ys...)
	var cps []int
	for cp := 0; cp < C; cp++ {
		if cp != c {
			cps = append(cps, cp)
		}
	}
	lu, err := mat.FactorInPlace(designMatrix(eqX[:n]))
	if err != nil {
		return nil, false
	}
	b := newSolveBuffers(n, len(eqX)-n, len(cps))
	logOddsInto(b.rhs, eqY[:n], c, cps)
	logOddsInto(b.wants, eqY[n:], c, cps)
	if !o.checkSolutions(lu, designMatrix(eqX[n:]), b) {
		return nil, false
	}
	out := make([]*pairSolution, C)
	collectPairs(b.beta, cps, out)
	return out, true
}

// sameBits reports the first field in which two interpretations differ,
// comparing floats by their bits.
func sameBits(got, want *plm.Interpretation) error {
	if got.Iterations != want.Iterations || got.Queries != want.Queries {
		return fmt.Errorf("%d rounds / %d queries, reference %d / %d", got.Iterations, got.Queries, want.Iterations, want.Queries)
	}
	if math.Float64bits(got.FinalEdge) != math.Float64bits(want.FinalEdge) {
		return fmt.Errorf("final edge %g, reference %g", got.FinalEdge, want.FinalEdge)
	}
	vecs := func(name string, g, w mat.Vec) error {
		if len(g) != len(w) {
			return fmt.Errorf("%s has %d entries, reference %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("%s[%d] = %v, reference %v", name, i, g[i], w[i])
			}
		}
		return nil
	}
	if err := vecs("D_c", got.Features, want.Features); err != nil {
		return err
	}
	if err := vecs("B", got.Biases, want.Biases); err != nil {
		return err
	}
	for cp := range want.PairDiffs {
		if err := vecs(fmt.Sprintf("D_{c,%d}", cp), got.PairDiffs[cp], want.PairDiffs[cp]); err != nil {
			return err
		}
	}
	return nil
}

// TestOverlapMatchesSerialReference: factoring under the probe round trip
// and reusing one design buffer change only scheduling. At one and two
// GEMM workers and d ∈ {8, 64, 200}, Interpret recovers interpretations
// bit-identical to the serial reference loop, round count and query count
// included.
func TestOverlapMatchesSerialReference(t *testing.T) {
	defer mat.SetWorkers(mat.SetWorkers(0))
	multiRound := 0
	for _, d := range []int{8, 64, 200} {
		model := plnnModel(int64(d), d, 24, 12, 3)
		x0 := randVec(rand.New(rand.NewSource(int64(d)+1)), d)
		c := model.Predict(x0).ArgMax()
		for _, workers := range []int{1, 2} {
			mat.SetWorkers(workers)
			cfg := Config{Seed: int64(d) + 7, InitialEdge: 16 / float64(d)}
			want, err := New(cfg).interpretSerialReference(model, x0, c)
			if err != nil {
				t.Fatalf("d=%d: reference: %v", d, err)
			}
			got, err := New(cfg).Interpret(model, x0, c)
			if err != nil {
				t.Fatalf("d=%d workers=%d: %v", d, workers, err)
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("d=%d workers=%d: %v", d, workers, err)
			}
			if got.Iterations > 1 {
				multiRound++
			}
		}
	}
	if multiRound == 0 {
		t.Fatal("every interpretation converged in one round; the buffer refill went untested")
	}
}

// assertFactorJoined fails if a goroutine is still inside a round's factor
// step. The factor goroutine's last act, closing the join channel, comes
// after the factor returns, so a joined goroutine that is still unwinding
// never shows the factor on its stack: the check needs neither a sleep nor
// a retry. One that was not joined is still factoring and does.
func assertFactorJoined(t *testing.T, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if strings.Contains(string(buf), "repro/internal/core.(*OpenAPI).factor(") {
		t.Fatalf("%s: a factor step outlived Interpret:\n%s", what, buf)
	}
}

// panicModel answers its anchor probe and panics on the first batch.
type panicModel struct{ plm.Model }

func (m panicModel) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	if len(xs) > 1 {
		panic("probe failed")
	}
	return []mat.Vec{m.Predict(xs[0])}, nil
}

// TestOverlapJoinsFactorGoroutine: no factor goroutine outlives Interpret
// on success, on ErrNoConvergence, when the model's probes are corrupted or
// fail outright, or when the model panics mid-round. d = 200 makes each factor take long enough
// that an unjoined one would still be running.
func TestOverlapJoinsFactorGoroutine(t *testing.T) {
	const d = 200
	model := plnnModel(81, d, 16, 4)
	x0 := randVec(rand.New(rand.NewSource(82)), d)
	c := model.Predict(x0).ArgMax()
	if _, err := New(Config{Seed: 83, InitialEdge: 0.08}).Interpret(model, x0, c); err != nil {
		t.Fatal(err)
	}
	assertFactorJoined(t, "success")

	flaky := api.NewFlaky(model, 0.5, rand.New(rand.NewSource(84)))
	_, err := New(Config{Seed: 85, MaxIterations: 2}).Interpret(flaky, x0, c)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("flaky: err = %v, want ErrNoConvergence", err)
	}
	if flaky.Failures() == 0 {
		t.Fatal("fault injector never fired")
	}
	assertFactorJoined(t, "failing probes")

	// A batch that errors ends the interpretation in its first round, with
	// the factor of that round already started.
	down := failingBatchModel{model}
	if _, err := New(Config{Seed: 87}).InterpretWithPrediction(down, x0, model.Predict(x0), c); !errors.Is(err, errBatchDown) {
		t.Fatalf("failing batch: err = %v, want errBatchDown", err)
	}
	assertFactorJoined(t, "failing batch")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the model's panic did not reach the caller")
			}
		}()
		_, _ = New(Config{Seed: 86}).Interpret(panicModel{model}, x0, c)
	}()
	assertFactorJoined(t, "panicking model")
}

// constModel answers every probe with the same preallocated distribution,
// allocating nothing per batch.
type constModel struct {
	d   int
	ans []mat.Vec
}

func (m constModel) Dim() int                { return m.d }
func (m constModel) Classes() int            { return len(m.ans[0]) }
func (m constModel) Predict(mat.Vec) mat.Vec { return m.ans[0] }
func (m constModel) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return m.ans[:len(xs)], nil
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOverlapRoundReusesDesignBuffer: the design matrix is allocated once
// per interpretation, so the interpreter's own share of an extra round —
// its allocation minus the sampler's fresh points — stays below one
// (d+1)² design matrix at d = 64. The model answers a constant that
// disagrees with the anchor, so every round is rejected.
func TestOverlapRoundReusesDesignBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const d, C, k, rounds = 64, 10, 2, 8
	ans := make(mat.Vec, C)
	for i := range ans {
		ans[i] = float64(i+1) / 55
	}
	model := constModel{d: d, ans: make([]mat.Vec, d+k)}
	for i := range model.ans {
		model.ans[i] = ans
	}
	y0 := make(mat.Vec, C).Fill(1 / float64(C))
	x0 := randVec(rand.New(rand.NewSource(91)), d)
	run := func(iters int) {
		o := New(Config{Seed: 92, MaxIterations: iters, ExtraChecks: k})
		if _, err := o.InterpretWithPrediction(model, x0, y0, 0); !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%d rounds: err = %v, want ErrNoConvergence", iters, err)
		}
	}
	// A collection empties the scratch pools; hold it off so the count is
	// the warm steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(rounds) // warm the pools
	perRound := (heapBytes(func() { run(2 * rounds) }) - heapBytes(func() { run(rounds) })) / rounds
	rng := rand.New(rand.NewSource(93))
	sampler := heapBytes(func() { sample.NewHypercube(x0, 1).SampleN(rng, d+k) })
	own := perRound - min(perRound, sampler)
	limit := uint64((d + 1) * (d + 1) * 8)
	t.Logf("extra round: %d B, sampler %d B, interpreter %d B (one design matrix %d B)", perRound, sampler, own, limit)
	if own >= limit {
		t.Fatalf("an extra round allocates %d B besides its sample points, want < %d (one design matrix)", own, limit)
	}
}
