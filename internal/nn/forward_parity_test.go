package nn

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// The batched forward fuses bias add, mask capture and activation into the
// GEMM epilogue, and that must never change a single output bit, on any
// kernel tier the machine can run. This battery compares the batched
// forward against the per-instance scalar reference — logits, activation
// patterns and MaxOut winners — across plain-ReLU and leaky networks, batch
// sizes hitting every row-block remainder (mod 8 and mod 4), and every
// available tier. The Train parity tests sweep the tiers the same way.

// forEachKernelTier pins each mat kernel tier the CPU supports in turn and
// restores the previous tier when done.
func forEachKernelTier(t *testing.T, fn func(t *testing.T, tier mat.KernelTier)) {
	t.Helper()
	prev := mat.ActiveKernelTier()
	defer mat.SetKernelTier(prev)
	for _, tier := range mat.AvailableTiers() {
		if _, err := mat.SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%s): %v", tier, err)
		}
		t.Run(tier.String(), func(t *testing.T) { fn(t, tier) })
	}
}

// batchOf builds b random inputs of dimension d.
func batchOf(rng *rand.Rand, b, d int) []mat.Vec {
	xs := make([]mat.Vec, b)
	for i := range xs {
		xs[i] = randInput(rng, d)
	}
	return xs
}

func TestForwardBatchMatchesScalarAllTiers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier mat.KernelTier) {
		rng := rand.New(rand.NewSource(301))
		for _, leak := range []float64{0, 0.1} {
			n := New(rand.New(rand.NewSource(302)), 7, 9, 6, 3).SetLeak(leak)
			// Batch sizes covering the 8-row, 4-row and scalar-row remainder
			// combinations of every tier.
			for _, b := range []int{1, 3, 4, 5, 8, 9, 12, 17} {
				xs := batchOf(rng, b, 7)
				z := n.LogitsBatch(xs)
				masks := n.ActivationPatternBatch(xs)
				for i, x := range xs {
					bitEqualVec(t, "logits", z[i], n.Logits(x))
					want := n.ActivationPattern(x)
					if len(masks[i]) != len(want) {
						t.Fatalf("pattern length %d != %d", len(masks[i]), len(want))
					}
					for j := range want {
						if masks[i][j] != want[j] {
							t.Fatalf("leak=%v b=%d: pattern[%d][%d] batched=%v scalar=%v",
								leak, b, i, j, masks[i][j], want[j])
						}
					}
				}
			}
		}
	})
}

func TestMaxoutForwardBatchMatchesScalarAllTiers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier mat.KernelTier) {
		rng := rand.New(rand.NewSource(311))
		n := NewMaxout(rand.New(rand.NewSource(312)), 3, 5, 9, 6, 3)
		for _, b := range []int{1, 5, 8, 13} {
			xs := batchOf(rng, b, 5)
			z := n.LogitsBatch(xs)
			winners := n.WinnerPatternBatch(xs)
			for i, x := range xs {
				bitEqualVec(t, "maxout logits", z[i], n.Logits(x))
				want := n.WinnerPattern(x)
				if len(winners[i]) != len(want) {
					t.Fatalf("winners length %d != %d", len(winners[i]), len(want))
				}
				for j := range want {
					if winners[i][j] != want[j] {
						t.Fatalf("b=%d: winners[%d][%d] batched=%d scalar=%d",
							b, i, j, winners[i][j], want[j])
					}
				}
			}
		}
	})
}
