package openbox

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestExtractAllTierParity pins openbox's end-to-end consistency guarantee
// against the kernel tier ladder: the batched pattern-driven extraction must
// return bit-identical region coefficients on every GEMM tier the machine
// can run, and each must match the per-instance Extract on the same tier.
// Extraction keys regions on activation patterns captured by the fused
// epilogue, so a single divergent bit anywhere in the forward would surface
// here as a different region or different coefficients.
func TestExtractAllTierParity(t *testing.T) {
	n := randNet(41, 6, 10, 8, 4)
	rng := rand.New(rand.NewSource(42))
	xs := make([]mat.Vec, 9) // remainder batch for every row-block width
	for i := range xs {
		xs[i] = randVec(rng, 6)
	}

	prev := mat.ActiveKernelTier()
	defer mat.SetKernelTier(prev)

	var refW []*mat.Dense
	var refB []mat.Vec
	for ti, tier := range mat.AvailableTiers() {
		if _, err := mat.SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%s): %v", tier, err)
		}
		locs, err := LocalAtAll(&PLNN{Net: n}, xs)
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		for i, loc := range locs {
			single, err := Extract(n, xs[i])
			if err != nil {
				t.Fatalf("tier %s: %v", tier, err)
			}
			if loc.Key != single.Key {
				t.Fatalf("tier %s: batched region key %q != per-instance %q", tier, loc.Key, single.Key)
			}
			if ti == 0 {
				refW = append(refW, loc.W)
				refB = append(refB, loc.B)
				continue
			}
			for r := 0; r < loc.W.Rows(); r++ {
				row, want := loc.W.RawRow(r), refW[i].RawRow(r)
				for c := range row {
					if row[c] != want[c] {
						t.Fatalf("tier %s: W[%d][%d,%d] = %v, want %v (bit-exact vs scalar)",
							tier, i, r, c, row[c], want[c])
					}
				}
			}
			for c := range loc.B {
				if loc.B[c] != refB[i][c] {
					t.Fatalf("tier %s: B[%d][%d] = %v, want %v", tier, i, c, loc.B[c], refB[i][c])
				}
			}
		}
	}
}
