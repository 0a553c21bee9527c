package eval

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

func TestRegionCensusMultiRegionNetwork(t *testing.T) {
	model := plnnModel(1, 4, 10, 3)
	rng := rand.New(rand.NewSource(2))
	anchors := []mat.Vec{randVec(rng, 4), randVec(rng, 4)}
	c, err := RegionCensus(model, anchors, 60, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.Probes != 60 {
		t.Fatalf("Probes = %d", c.Probes)
	}
	if c.DistinctRegions < 2 {
		t.Fatalf("a 10-unit ReLU net should expose several regions, got %d", c.DistinctRegions)
	}
	if c.LargestShare <= 0 || c.LargestShare > 1 {
		t.Fatalf("LargestShare = %v", c.LargestShare)
	}
	if c.MinEdge < 0 || c.MedianEdge < c.MinEdge || c.MaxEdge < c.MedianEdge {
		t.Fatalf("edge ordering broken: %v %v %v", c.MinEdge, c.MedianEdge, c.MaxEdge)
	}
}

func TestRegionCensusSingleRegionModel(t *testing.T) {
	// A pure linear model has exactly one region: census must report it and
	// the edge search should hit its upper bound region size.
	rng := rand.New(rand.NewSource(3))
	w := mat.FromRows(mat.Vec{1, 0}, mat.Vec{0, 1})
	net := nn.FromLayers(nn.Layer{W: w, B: mat.Vec{0, 0}})
	model := &openbox.PLNN{Net: net}
	c, err := RegionCensus(model, []mat.Vec{{0, 0}}, 25, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.DistinctRegions != 1 {
		t.Fatalf("linear model census found %d regions", c.DistinctRegions)
	}
	if c.LargestShare != 1 {
		t.Fatalf("LargestShare = %v", c.LargestShare)
	}
}

func TestRegionCensusErrors(t *testing.T) {
	model := plnnModel(4, 3, 4, 2)
	rng := rand.New(rand.NewSource(5))
	if _, err := RegionCensus(model, nil, 10, 10, rng); err == nil {
		t.Fatal("empty anchors accepted")
	}
}

func TestSweepRegionsPopulatesStoreAndReportsProgress(t *testing.T) {
	net := nn.New(rand.New(rand.NewSource(10)), 4, 10, 3)
	model := openbox.CacheRegionModelOpts(&openbox.PLNN{Net: net}, openbox.StoreOptions{Capacity: 1024})
	rng := rand.New(rand.NewSource(11))
	anchors := []mat.Vec{randVec(rng, 4), randVec(rng, 4)}

	var ticks []int
	rep, err := SweepRegions(model, anchors, 300, rng, func(done int) { ticks = append(ticks, done) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 300 {
		t.Fatalf("Probes = %d, want 300", rep.Probes)
	}
	if rep.DistinctRegions < 2 {
		t.Fatalf("a 10-unit ReLU net should expose several regions, got %d", rep.DistinctRegions)
	}
	// Progress is chunked (256 probes per batch), cumulative, and ends at n.
	if len(ticks) != 2 || ticks[0] != 256 || ticks[1] != 300 {
		t.Fatalf("progress ticks = %v, want [256 300]", ticks)
	}
	// The sweep's point is its side effect: every distinct region it touched
	// is now in the model's region store.
	if st := model.(openbox.StoreReporter).RegionStoreStats(); st.Size != rep.DistinctRegions {
		t.Fatalf("store holds %d regions, sweep reported %d distinct", st.Size, rep.DistinctRegions)
	}
}

func TestSweepRegionsDefaultBudgetAndFallback(t *testing.T) {
	// A model without the pattern hook sweeps through RegionKey and LocalAt
	// in a transient cache; the default budget is 64 probes per anchor.
	net := nn.New(rand.New(rand.NewSource(12)), 4, 8, 3)
	model := localOnly{&openbox.PLNN{Net: net}}
	rng := rand.New(rand.NewSource(13))
	anchors := []mat.Vec{randVec(rng, 4), randVec(rng, 4)}
	rep, err := SweepRegions(model, anchors, 0, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 64*len(anchors) {
		t.Fatalf("default budget swept %d probes, want %d", rep.Probes, 64*len(anchors))
	}
	if rep.DistinctRegions < 1 {
		t.Fatal("fallback sweep found no regions")
	}
	if _, err := SweepRegions(model, nil, 10, rng, nil); err == nil {
		t.Fatal("empty anchors accepted")
	}
}

// localOnly hides the pattern hook so SweepRegions exercises the cache's
// RegionKey + LocalAt fallback.
type localOnly struct{ plm.RegionModel }
