package lmt

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestTreeRegionPatternMatchesLocalAt(t *testing.T) {
	// One tree descent per row yields key and composer; both must agree
	// with the two-descent RegionKey/LocalAt pair bit for bit.
	rng := rand.New(rand.NewSource(70))
	xs := make([]mat.Vec, 120)
	labels := make([]int, len(xs))
	for i := range xs {
		xs[i] = mat.Vec{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if xs[i][0]+xs[i][1] > 0 {
			labels[i] = 1
		}
	}
	tree, err := Train(rng, xs, labels, 2, Config{MinLeaf: 10, MaxDepth: 4, LogReg: LogRegConfig{Epochs: 20}})
	if err != nil {
		t.Fatal(err)
	}
	batch := xs[:10]
	keys, compose, err := tree.RegionPatterns(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range batch {
		if keys[i] != tree.RegionKey(x) {
			t.Fatalf("pattern key %q != RegionKey %q", keys[i], tree.RegionKey(x))
		}
		got, err := compose(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tree.LocalAt(x)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want.Key || !got.B.EqualApprox(want.B, 0) {
			t.Fatalf("composed leaf differs: %v vs %v", got.B, want.B)
		}
		for r := 0; r < got.W.Rows(); r++ {
			if !got.W.RawRow(r).EqualApprox(want.W.RawRow(r), 0) {
				t.Fatalf("row %d differs", r)
			}
		}
	}
	if _, _, err := tree.RegionPatterns([]mat.Vec{xs[0], {1}}); err == nil {
		t.Fatal("wrong-dim input accepted")
	}
}
