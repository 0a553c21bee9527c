package dataset

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// NNIndex answers Euclidean nearest-neighbour queries over a dataset by
// brute force with early abandoning — the paper's Figure 4 consistency
// experiment pairs each test instance with its nearest test-set neighbour.
type NNIndex struct {
	d *Dataset
}

// NewNNIndex builds an index over d. The dataset must not shrink afterwards.
func NewNNIndex(d *Dataset) *NNIndex { return &NNIndex{d: d} }

// Nearest returns the index of the dataset instance closest to x in
// Euclidean distance, excluding the instance at index exclude (pass -1 to
// consider all). It returns -1 when no candidate exists.
func (idx *NNIndex) Nearest(x mat.Vec, exclude int) int {
	best := -1
	bestDist := math.Inf(1)
	for i, cand := range idx.d.X {
		if i == exclude {
			continue
		}
		// Early-abandoned squared distance.
		var s float64
		for j, v := range cand {
			dv := v - x[j]
			s += dv * dv
			if s >= bestDist {
				s = math.Inf(1)
				break
			}
		}
		if s < bestDist {
			bestDist = s
			best = i
		}
	}
	return best
}

// NearestOf returns the nearest neighbour of instance i within the dataset.
func (idx *NNIndex) NearestOf(i int) (int, error) {
	if i < 0 || i >= idx.d.Len() {
		return -1, fmt.Errorf("dataset: index %d out of range %d", i, idx.d.Len())
	}
	n := idx.Nearest(idx.d.X[i], i)
	if n < 0 {
		return -1, fmt.Errorf("dataset: no neighbour for instance %d", i)
	}
	return n, nil
}
