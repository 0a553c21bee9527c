package dataset

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestNearestBasic(t *testing.T) {
	d := &Dataset{
		Name: "pts", Width: 2, Height: 1,
		X:     []mat.Vec{{0, 0}, {1, 0}, {0.4, 0}},
		Y:     []int{0, 1, 0},
		Names: []string{"a", "b"},
	}
	idx := NewNNIndex(d)
	if got := idx.Nearest(mat.Vec{0.1, 0}, -1); got != 0 {
		t.Fatalf("Nearest = %d", got)
	}
	if got := idx.Nearest(mat.Vec{0.1, 0}, 0); got != 2 {
		t.Fatalf("Nearest excluding 0 = %d", got)
	}
}

func TestNearestOf(t *testing.T) {
	d := &Dataset{
		Name: "pts", Width: 1, Height: 1,
		X:     []mat.Vec{{0}, {0.1}, {5}},
		Y:     []int{0, 0, 1},
		Names: []string{"a", "b"},
	}
	idx := NewNNIndex(d)
	n, err := idx.NearestOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("NearestOf(0) = %d", n)
	}
	if _, err := idx.NearestOf(9); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestNearestOfSingleton(t *testing.T) {
	d := &Dataset{Name: "one", Width: 1, Height: 1, X: []mat.Vec{{0}}, Y: []int{0}, Names: []string{"a", "b"}}
	if _, err := NewNNIndex(d).NearestOf(0); err == nil {
		t.Fatal("singleton should have no neighbour")
	}
}

func TestNearestMatchesBruteForceOnSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := SyntheticDigits(rng, SynthConfig{Size: 8, PerClass: 6})
	idx := NewNNIndex(d)
	// Cross-check early-abandon against a plain scan for a few probes.
	for probe := 0; probe < 10; probe++ {
		i := rng.Intn(d.Len())
		bestDist := 1e18
		for j, c := range d.X {
			if j == i {
				continue
			}
			if dist := d.X[i].L2Dist(c); dist < bestDist {
				bestDist = dist
			}
		}
		got, err := idx.NearestOf(i)
		if err != nil {
			t.Fatal(err)
		}
		// Ties can legitimately differ; compare distances instead of ids.
		if d.X[i].L2Dist(d.X[got]) > bestDist+1e-12 {
			t.Fatalf("probe %d: got dist %v, brute force %v", i, d.X[i].L2Dist(d.X[got]), bestDist)
		}
	}
}
