package extract

import (
	"math/rand"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
)

func plnnModel(seed int64, sizes ...int) *openbox.PLNN {
	return &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(seed)), sizes...)}
}

func randVec(rng *rand.Rand, d int) mat.Vec {
	v := make(mat.Vec, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestHarvestExactWithinRegion(t *testing.T) {
	// The surrogate must reproduce the hidden model's distribution exactly
	// at points that share the probe's region.
	model := plnnModel(1, 5, 10, 4)
	rng := rand.New(rand.NewSource(2))
	probe := randVec(rng, 5)
	ext := New(core.Config{Seed: 3})
	s, err := ext.Harvest(model, []mat.Vec{probe})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != 1 {
		t.Fatalf("regions = %d", s.NumRegions())
	}
	hits := 0
	for trial := 0; trial < 100; trial++ {
		x := probe.Clone()
		for i := range x {
			x[i] += 1e-7 * rng.NormFloat64()
		}
		if model.RegionKey(x) != model.RegionKey(probe) {
			continue
		}
		hits++
		want := model.Predict(x)
		got := s.Predict(x)
		if !got.EqualApprox(want, 1e-6) {
			t.Fatalf("surrogate %v != model %v inside probed region", got, want)
		}
	}
	if hits == 0 {
		t.Fatal("no same-region test points; test ineffective")
	}
}

func TestHarvestMultiRegionFidelity(t *testing.T) {
	// More probes -> better coverage. Fidelity of a 30-probe surrogate must
	// be high on fresh instances and no worse than a 1-probe surrogate.
	model := plnnModel(4, 4, 8, 3)
	rng := rand.New(rand.NewSource(5))
	probes := make([]mat.Vec, 30)
	for i := range probes {
		probes[i] = randVec(rng, 4)
	}
	ext := New(core.Config{Seed: 6})
	big, err := ext.Harvest(model, probes)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ext.Harvest(model, probes[:1])
	if err != nil {
		t.Fatal(err)
	}
	tests := make([]mat.Vec, 150)
	for i := range tests {
		tests[i] = randVec(rng, 4)
	}
	fBig, err := Verify(big, model, tests)
	if err != nil {
		t.Fatal(err)
	}
	fSmall, err := Verify(small, model, tests)
	if err != nil {
		t.Fatal(err)
	}
	if fBig.LabelAgreement < 0.8 {
		t.Fatalf("30-probe surrogate agreement = %v", fBig.LabelAgreement)
	}
	if fBig.LabelAgreement+1e-9 < fSmall.LabelAgreement-0.1 {
		t.Fatalf("more probes made fidelity much worse: %v vs %v",
			fBig.LabelAgreement, fSmall.LabelAgreement)
	}
	if fBig.MeanTVDistance < 0 || fBig.MeanTVDistance > 1 {
		t.Fatalf("TV distance out of range: %v", fBig.MeanTVDistance)
	}
}

func TestHarvestThroughCountedAPI(t *testing.T) {
	// Extraction consumes only Predict calls — count them.
	model := plnnModel(7, 4, 6, 3)
	counter := api.NewCounter(model)
	ext := New(core.Config{Seed: 8})
	rng := rand.New(rand.NewSource(9))
	if _, err := ext.Harvest(counter, []mat.Vec{randVec(rng, 4), randVec(rng, 4)}); err != nil {
		t.Fatal(err)
	}
	if counter.Count() == 0 {
		t.Fatal("no API queries recorded")
	}
}

func TestHarvestPoolExactWithinRegion(t *testing.T) {
	// HarvestPool anchors each region at the probe's *predicted* class and
	// rebases onto class 0, so its surrogate must be exact within probed
	// regions exactly like the serial Harvest.
	model := plnnModel(20, 5, 10, 4)
	rng := rand.New(rand.NewSource(21))
	probes := make([]mat.Vec, 6)
	for i := range probes {
		probes[i] = randVec(rng, 5)
	}
	ext := New(core.Config{Seed: 22})
	s, err := ext.HarvestPool(model, probes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != len(probes) {
		t.Fatalf("regions = %d, want %d", s.NumRegions(), len(probes))
	}
	hits := 0
	for pi, probe := range probes {
		for trial := 0; trial < 40; trial++ {
			x := probe.Clone()
			for i := range x {
				x[i] += 1e-7 * rng.NormFloat64()
			}
			if model.RegionKey(x) != model.RegionKey(probe) {
				continue
			}
			hits++
			want := model.Predict(x)
			got := s.Predict(x)
			if !got.EqualApprox(want, 1e-6) {
				t.Fatalf("probe %d: surrogate %v != model %v inside region", pi, got, want)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no same-region test points; test ineffective")
	}
}

func TestHarvestPoolDeterministicAndConcurrent(t *testing.T) {
	// Fixed worker count -> bit-identical surrogates across runs (run with
	// -race).
	model := plnnModel(23, 4, 8, 3)
	rng := rand.New(rand.NewSource(24))
	probes := make([]mat.Vec, 8)
	for i := range probes {
		probes[i] = randVec(rng, 4)
	}
	first, err := New(core.Config{Seed: 25}).HarvestPool(model, probes, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(core.Config{Seed: 25}).HarvestPool(model, probes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumRegions() != second.NumRegions() {
		t.Fatalf("regions differ: %d vs %d", first.NumRegions(), second.NumRegions())
	}
	for trial := 0; trial < 50; trial++ {
		x := randVec(rng, 4)
		a, b := first.Predict(x), second.Predict(x)
		if !a.EqualApprox(b, 0) {
			t.Fatalf("pooled harvest differs across runs at %v: %v vs %v", x, a, b)
		}
	}
}

func TestHarvestPoolSkipsFailedProbes(t *testing.T) {
	model := plnnModel(26, 3, 6, 2)
	rng := rand.New(rand.NewSource(27))
	ext := New(core.Config{Seed: 28})
	if _, err := ext.HarvestPool(model, nil, 2); err == nil {
		t.Fatal("empty probes accepted")
	}
	// A wrong-dimension probe fails its job; the good probe still lands.
	s, err := ext.HarvestPool(model, []mat.Vec{{1}, randVec(rng, 3)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != 1 {
		t.Fatalf("regions = %d, want 1", s.NumRegions())
	}
}

func TestHarvestErrors(t *testing.T) {
	model := plnnModel(10, 3, 4, 2)
	ext := New(core.Config{Seed: 11})
	if _, err := ext.Harvest(model, nil); err == nil {
		t.Fatal("empty probes accepted")
	}
	// A probe of the wrong dimension fails interpretation; with only that
	// probe, Harvest must fail too.
	if _, err := ext.Harvest(model, []mat.Vec{{1}}); err == nil {
		t.Fatal("all-failed harvest should error")
	}
	// A mix of bad and good probes succeeds with the good one.
	rng := rand.New(rand.NewSource(12))
	s, err := ext.Harvest(model, []mat.Vec{{1}, randVec(rng, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != 1 {
		t.Fatalf("regions = %d", s.NumRegions())
	}
}

func TestVerifyErrors(t *testing.T) {
	model := plnnModel(13, 3, 4, 2)
	s := &Surrogate{dim: 3, classes: 2}
	if _, err := Verify(s, model, nil); err == nil {
		t.Fatal("empty verification set accepted")
	}
}

func TestEmptySurrogatePredictsUniform(t *testing.T) {
	s := &Surrogate{dim: 2, classes: 4}
	p := s.Predict(mat.Vec{0, 0})
	for _, v := range p {
		if v != 0.25 {
			t.Fatalf("empty surrogate = %v", p)
		}
	}
	if s.RegionAt(mat.Vec{0, 0}) != nil {
		t.Fatal("empty surrogate has a region")
	}
}

func TestSurrogateMetadata(t *testing.T) {
	s := &Surrogate{dim: 7, classes: 3}
	if s.Dim() != 7 || s.Classes() != 3 || s.NumRegions() != 0 {
		t.Fatal("metadata wrong")
	}
}

// TestHarvestExactWhiteBox exercises the owner-side export path: no API
// probing, one region per distinct activation pattern, exact predictions on
// every probe.
func TestHarvestExactWhiteBox(t *testing.T) {
	model := plnnModel(31, 6, 12, 8, 4)
	rng := rand.New(rand.NewSource(32))
	// 5 distinct base points, each probed 4 times (exact duplicates share a
	// region by construction).
	var probes []mat.Vec
	for i := 0; i < 5; i++ {
		base := randVec(rng, 6)
		for r := 0; r < 4; r++ {
			probes = append(probes, base.Clone())
		}
	}
	s, err := HarvestExact(model, probes)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, p := range probes {
		distinct[model.RegionKey(p)] = true
	}
	if s.NumRegions() != len(distinct) {
		t.Fatalf("harvested %d regions, want one per distinct region (%d)", s.NumRegions(), len(distinct))
	}
	if s.NumRegions() >= len(probes) {
		t.Fatalf("harvested %d regions from %d clustered probes; dedup failed", s.NumRegions(), len(probes))
	}
	for i, p := range probes {
		want := model.Predict(p)
		got := s.Predict(p)
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("probe %d: surrogate %v != model %v", i, got, want)
		}
	}
	fid, err := Verify(s, model, probes)
	if err != nil {
		t.Fatal(err)
	}
	if fid.LabelAgreement != 1 {
		t.Fatalf("label agreement %v on probed regions, want 1", fid.LabelAgreement)
	}
}

// TestHarvestExactMaxout covers the generic (non-PLNN) white-box path.
func TestHarvestExactMaxout(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	model := &openbox.Maxout{Net: nn.NewMaxout(rng, 3, 5, 8, 3)}
	probe := randVec(rng, 5)
	s, err := HarvestExact(model, []mat.Vec{probe, probe.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != 1 {
		t.Fatalf("duplicate probes harvested %d regions, want 1", s.NumRegions())
	}
	want := model.Predict(probe)
	if got := s.Predict(probe); !got.EqualApprox(want, 1e-9) {
		t.Fatalf("surrogate %v != model %v", got, want)
	}
}

func TestHarvestExactErrors(t *testing.T) {
	model := plnnModel(34, 4, 6, 2)
	if _, err := HarvestExact(model, nil); err == nil {
		t.Fatal("no probes accepted")
	}
	if _, err := HarvestExact(model, []mat.Vec{{1, 2}}); err == nil {
		t.Fatal("wrong-dimension probe accepted")
	}
}
