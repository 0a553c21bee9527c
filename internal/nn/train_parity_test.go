package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// Train must produce bit-identical weights to the per-sample reference
// (trainPerSample): same seed, same batch order, same optimizer state,
// every gradient accumulated in the same ascending order. These tests pin
// that contract across both network families, both optimizers and every
// kernel tier the machine can run, including remainder batches and weight
// decay.

// trainParityConfigs is the optimizer/config battery shared by the parity
// tests. BatchSize 16 over 56 samples forces a remainder batch of 8.
func trainParityConfigs() map[string]TrainConfig {
	return map[string]TrainConfig{
		"sgd":          {Epochs: 4, BatchSize: 16, LearningRate: 0.1},
		"sgd-decay":    {Epochs: 4, BatchSize: 16, LearningRate: 0.1, WeightDecay: 0.01},
		"sgd-momentum": {Epochs: 4, BatchSize: 16, LearningRate: 0.05, Momentum: 0.5},
		"adam":         {Epochs: 4, BatchSize: 16, Optimizer: Adam},
		"adam-decay":   {Epochs: 4, BatchSize: 16, Optimizer: Adam, WeightDecay: 0.01},
	}
}

// parityData builds a small multi-region dataset with a remainder batch.
func parityData(seed int64) ([]mat.Vec, []int) {
	rng := rand.New(rand.NewSource(seed))
	xs, ys := xorData(rng, 14) // 56 samples
	return xs, ys
}

func bitEqualVec(t *testing.T, label string, got, want mat.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %g, want %g (bit-exact)", label, i, got[i], want[i])
		}
	}
}

func bitEqualDense(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < got.Rows(); r++ {
		bitEqualVec(t, label, got.RawRow(r), want.RawRow(r))
	}
}

func TestTrainBatchedMatchesPerSampleNetwork(t *testing.T) {
	checkTrainParityNetwork(t, 200, 201)
}

func TestTrainBatchedMatchesPerSampleMaxout(t *testing.T) {
	checkTrainParityMaxout(t, 210, 211)
}

// The AllTiers variants repeat the battery on fresh seeds under every kernel
// tier the machine can run (subtests scalar/avx2/avx512): the batched
// forward's epilogues, the captured masks and the backward delta scaling
// must agree with the per-sample reference on each tier.

func TestTrainBatchedMatchesPerSampleNetworkAllTiers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, _ mat.KernelTier) {
		checkTrainParityNetwork(t, 320, 321)
	})
}

func TestTrainBatchedMatchesPerSampleMaxoutAllTiers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, _ mat.KernelTier) {
		checkTrainParityMaxout(t, 330, 331)
	})
}

// checkTrainParityNetwork trains a ReLU and a leaky network with every
// trainParityConfigs entry, once through trainPerSample and once through
// Train, and demands bit-identical losses and weights.
func checkTrainParityNetwork(t *testing.T, dataSeed, netSeed int64) {
	t.Helper()
	xs, ys := parityData(dataSeed)
	for _, leak := range []float64{0, 0.1} {
		for name, cfg := range trainParityConfigs() {
			build := func() (*Network, *rand.Rand) {
				rng := rand.New(rand.NewSource(netSeed))
				return New(rng, 2, 9, 7, 2).SetLeak(leak), rng
			}
			ref, refRNG := build()
			bat, batRNG := build()

			refLoss := trainPerSample(ref, refRNG, xs, ys, cfg)
			batLoss, err := bat.Train(batRNG, xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if refLoss != batLoss {
				t.Fatalf("leak=%v %s: loss %g (per-sample) != %g (batched)", leak, name, refLoss, batLoss)
			}
			for i := 0; i < ref.NumLayers(); i++ {
				rl, bl := ref.LayerShared(i), bat.LayerShared(i)
				bitEqualDense(t, name+" W", bl.W, rl.W)
				bitEqualVec(t, name+" B", bl.B, rl.B)
			}
		}
	}
}

// checkTrainParityMaxout is checkTrainParityNetwork for a MaxOut network.
func checkTrainParityMaxout(t *testing.T, dataSeed, netSeed int64) {
	t.Helper()
	xs, ys := parityData(dataSeed)
	for name, cfg := range trainParityConfigs() {
		build := func() (*MaxoutNetwork, *rand.Rand) {
			rng := rand.New(rand.NewSource(netSeed))
			return NewMaxout(rng, 3, 2, 8, 6, 2), rng
		}
		ref, refRNG := build()
		bat, batRNG := build()

		refLoss := trainPerSample(ref, refRNG, xs, ys, cfg)
		batLoss, err := bat.Train(batRNG, xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if refLoss != batLoss {
			t.Fatalf("%s: loss %g (per-sample) != %g (batched)", name, refLoss, batLoss)
		}
		for li := range ref.hidden {
			for p := range ref.hidden[li].Pieces {
				rp, bp := ref.hidden[li].Pieces[p], bat.hidden[li].Pieces[p]
				bitEqualDense(t, name+" piece W", bp.W, rp.W)
				bitEqualVec(t, name+" piece B", bp.B, rp.B)
			}
		}
		bitEqualDense(t, name+" out W", bat.out.W, ref.out.W)
		bitEqualVec(t, name+" out B", bat.out.B, ref.out.B)
	}
}

// TestTrainBatchedSingleLayerNetwork covers the no-hidden-layer edge: the
// backward pass has no delta propagation and acts are the raw inputs.
func TestTrainBatchedSingleLayerNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	xs, ys := twoBlobs(rng, 15) // 30 samples, batch 32 -> one undersized batch
	build := func() (*Network, *rand.Rand) {
		r := rand.New(rand.NewSource(221))
		return New(r, 2, 2), r
	}
	ref, refRNG := build()
	bat, batRNG := build()
	trainPerSample(ref, refRNG, xs, ys, TrainConfig{Epochs: 3})
	if _, err := bat.Train(batRNG, xs, ys, TrainConfig{Epochs: 3}); err != nil {
		t.Fatal(err)
	}
	bitEqualDense(t, "W", bat.LayerShared(0).W, ref.LayerShared(0).W)
	bitEqualVec(t, "B", bat.LayerShared(0).B, ref.LayerShared(0).B)
}

// TestTrainMaxoutGradientMatchesFiniteDifference validates the rewritten
// MaxOut gradient accumulation against central finite differences — the
// reference the parity battery anchors to must itself be a correct
// gradient.
func TestTrainMaxoutGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(230))
	n := NewMaxout(rng, 3, 3, 5, 4, 2)
	x := randInput(rng, 3)
	label := 1
	g := newMaxoutGradients(n)
	n.accumulate(g, x, label)

	const h = 1e-6
	check := func(label0 string, got float64, bump func(delta float64)) {
		t.Helper()
		bump(h)
		up := CrossEntropy(n.Predict(x), label)
		bump(-2 * h)
		down := CrossEntropy(n.Predict(x), label)
		bump(h)
		fd := (up - down) / (2 * h)
		if math.Abs(fd-got) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("%s: analytic %v vs fd %v", label0, got, fd)
		}
	}
	for li := range n.hidden {
		for p := range n.hidden[li].Pieces {
			piece := n.hidden[li].Pieces[p]
			w := piece.W
			for _, rc := range [][2]int{{0, 0}, {w.Rows() - 1, w.Cols() - 1}} {
				r, c := rc[0], rc[1]
				check("hidden W", g.hidden[li][p].dW.At(r, c),
					func(d float64) { w.Set(r, c, w.At(r, c)+d) })
			}
			check("hidden B", g.hidden[li][p].dB[0],
				func(d float64) { piece.B[0] += d })
		}
	}
	check("out W", g.out.dW.At(1, 2), func(d float64) { n.out.W.Set(1, 2, n.out.W.At(1, 2)+d) })
	check("out B", g.out.dB[0], func(d float64) { n.out.B[0] += d })
}

// TestTrainBatchedAllocsConstantPerEpoch pins the pooled-scratch contract:
// once the scratch is warm, extra epochs (and their mini-batches) reuse the
// same gradient accumulators and forward/backward matrices, so the only
// per-epoch allocations left are the shuffle permutation and the view
// rebuild around the remainder batch.
func TestTrainBatchedAllocsConstantPerEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without it")
	}
	rng := rand.New(rand.NewSource(240))
	xs, ys := xorData(rng, 60) // 240 samples; batch 32 -> 7 full + remainder 16
	base := New(rng, 2, 32, 16, 2)
	train := func(epochs int) func() {
		return func() {
			net := base.Clone()
			r := rand.New(rand.NewSource(241))
			if _, err := net.Train(r, xs, ys, TrainConfig{Epochs: epochs, BatchSize: 32}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a1 := testing.AllocsPerRun(3, train(1))
	a5 := testing.AllocsPerRun(3, train(5))
	perEpoch := (a5 - a1) / 4
	if perEpoch > 64 {
		t.Fatalf("batched training allocates %.1f allocs per extra epoch (want <= 64): scratch is not being reused", perEpoch)
	}
}
