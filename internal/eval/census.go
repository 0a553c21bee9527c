package eval

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/openbox"
	"repro/internal/plm"
	"repro/internal/sample"
)

// Census quantifies the locally-linear-region structure the paper's §II
// argument rests on (region counts grow exponentially with network width,
// citing Montúfar et al.): how many distinct regions a probe sample touches
// and how large the regions around data points are.
type Census struct {
	Probes          int
	DistinctRegions int
	// LargestShare is the fraction of probes landing in the most popular
	// region (1.0 = the sampler never left one region).
	LargestShare float64
	// MedianEdge is the median edge length of the largest same-region
	// hypercube found around each probe by bisection — an empirical proxy
	// for local region size, the quantity OpenAPI's adaptive shrinking has
	// to discover per instance.
	MedianEdge float64
	// MinEdge and MaxEdge bound the same measurement.
	MinEdge, MaxEdge float64
}

// RegionCensus probes the model at n points drawn around the given anchors
// (uniform in a unit hypercube centred on a random anchor each) and reports
// region statistics. maxBisect bounds the per-probe edge search.
func RegionCensus(model plm.RegionModel, anchors []mat.Vec, n, maxBisect int, rng *rand.Rand) (Census, error) {
	if len(anchors) == 0 {
		return Census{}, fmt.Errorf("eval: census needs at least one anchor")
	}
	if n <= 0 {
		n = 100
	}
	if maxBisect <= 0 {
		maxBisect = 20
	}
	counts := make(map[string]int, n)
	edges := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		anchor := anchors[rng.Intn(len(anchors))]
		probe := sample.NewHypercube(anchor, 1.0).Sample(rng)
		counts[model.RegionKey(probe)]++
		edges = append(edges, sameRegionEdge(model, probe, rng, maxBisect))
	}
	var largest int
	for _, c := range counts {
		if c > largest {
			largest = c
		}
	}
	s := mat.Summarize(edges)
	return Census{
		Probes:          n,
		DistinctRegions: len(counts),
		LargestShare:    float64(largest) / float64(n),
		MedianEdge:      s.Median,
		MinEdge:         s.Min,
		MaxEdge:         s.Max,
	}, nil
}

// SweepReport summarizes one region-census sweep: how many probes were
// pushed through the model's closed-form path and how many distinct locally
// linear regions they touched. It is the async census job's result shape.
type SweepReport struct {
	Probes          int `json:"probes"`
	DistinctRegions int `json:"distinct_regions"`
}

// sweepChunk is how many probes one batched LocalAtAll call carries.
const sweepChunk = 256

// SweepRegions draws n probes uniformly from unit hypercubes centred on
// random anchors and resolves each probe's closed-form classifier in
// batches through the region cache (openbox.LocalAtAll). The
// sweep's entire purpose is its side effect: every region it touches lands
// in whatever RegionStore sits behind the model — a RAM cache, or the disk
// atlas a census job pre-populates so later interpretation requests are
// O(1) lookups. progress, when non-nil, receives the cumulative probe count
// after each chunk; it must be safe for the caller's concurrency.
func SweepRegions(model plm.RegionModel, anchors []mat.Vec, n int, rng *rand.Rand, progress func(done int)) (SweepReport, error) {
	if len(anchors) == 0 {
		return SweepReport{}, fmt.Errorf("eval: census sweep needs at least one anchor")
	}
	if n <= 0 {
		n = 64 * len(anchors)
	}
	distinct := make(map[string]bool)
	done := 0
	for done < n {
		count := sweepChunk
		if rem := n - done; rem < count {
			count = rem
		}
		probes := make([]mat.Vec, count)
		for i := range probes {
			anchor := anchors[rng.Intn(len(anchors))]
			probes[i] = sample.NewHypercube(anchor, 1.0).Sample(rng)
		}
		lins, err := openbox.LocalAtAll(model, probes)
		if err != nil {
			return SweepReport{}, fmt.Errorf("eval: census sweep: %w", err)
		}
		for i, lin := range lins {
			key := lin.Key
			if key == "" {
				key = model.RegionKey(probes[i])
			}
			distinct[key] = true
		}
		done += count
		if progress != nil {
			progress(done)
		}
	}
	return SweepReport{Probes: done, DistinctRegions: len(distinct)}, nil
}

// sameRegionEdge bisects for the largest hypercube edge around x whose
// sampled corners stay in x's region (8 probe corners per candidate edge).
func sameRegionEdge(model plm.RegionModel, x mat.Vec, rng *rand.Rand, maxBisect int) float64 {
	key := model.RegionKey(x)
	inRegion := func(edge float64) bool {
		cube := sample.NewHypercube(x, edge)
		for i := 0; i < 8; i++ {
			if model.RegionKey(cube.Sample(rng)) != key {
				return false
			}
		}
		return true
	}
	// Exponential search down from 1.0 until inside, then refine upward.
	edge := 1.0
	steps := 0
	for !inRegion(edge) && steps < maxBisect {
		edge /= 2
		steps++
	}
	if steps >= maxBisect {
		return edge
	}
	lo, hi := edge, edge*2
	for i := steps; i < maxBisect; i++ {
		mid := (lo + hi) / 2
		if inRegion(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
