package openbox

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/plm"
)

// The region cache's per-batch dedup must be independent of map iteration
// order:
// out[i] is pinned to xs[i], so permuting the batch must permute the
// outputs and nothing else, and instances sharing a region must share the
// bit-identical classifier whichever of them was seen first.

func TestExtractAllOrderIndependent(t *testing.T) {
	n := randNet(21, 5, 12, 8, 3)
	rng := rand.New(rand.NewSource(22))

	// Clustered batch: each base instance repeated with same-region jitter.
	var xs []mat.Vec
	for b := 0; b < 6; b++ {
		base := randVec(rng, 5)
		for p := 0; p < 4; p++ {
			x := base.Clone()
			for i := range x {
				x[i] += 1e-9 * rng.NormFloat64()
			}
			xs = append(xs, x)
		}
	}
	perm := rand.New(rand.NewSource(23)).Perm(len(xs))
	shuffled := make([]mat.Vec, len(xs))
	for i, j := range perm {
		shuffled[j] = xs[i]
	}

	fwd, err := LocalAtAll(&PLNN{Net: n}, xs)
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := LocalAtAll(&PLNN{Net: n}, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range perm {
		if !linearsBitIdentical(fwd[i], shuf[j]) {
			t.Fatalf("instance %d: classifier differs when the batch is permuted", i)
		}
	}

	// Run-to-run: same batch, identical bits every time.
	for run := 0; run < 3; run++ {
		again, err := LocalAtAll(&PLNN{Net: n}, xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if !linearsBitIdentical(fwd[i], again[i]) {
				t.Fatalf("run %d instance %d: classifier differs run to run", run, i)
			}
		}
	}
}

func linearsBitIdentical(a, b *plm.Linear) bool {
	if a.Dim() != b.Dim() || a.Classes() != b.Classes() {
		return false
	}
	for c := 0; c < a.Classes(); c++ {
		ra, rb := a.W.RawRow(c), b.W.RawRow(c)
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
		if a.B[c] != b.B[c] {
			return false
		}
	}
	return true
}
