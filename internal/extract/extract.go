// Package extract implements the paper's stated future work (§VI): reverse
// engineering a PLM hidden behind an API. OpenAPI already recovers, for an
// instance x0, the complete core parameters {(D_{c,0}, B_{c,0})} of x0's
// locally linear region. Those determine the region's classifier exactly up
// to the softmax's inherent shift invariance:
//
//	softmax(W x + b) = softmax([0, D_{1,0}x + B_{1,0}, ..., D_{C-1,0}x + B_{C-1,0}])
//
// so one converged OpenAPI run yields a surrogate that predicts *bitwise the
// same distribution* as the hidden model everywhere in that region. A
// patchwork of such regions, harvested from probe instances, is a functional
// clone of the model on the probed parts of the input space.
//
// Guarantees: within the region of a harvested probe the surrogate is exact
// (w.p. 1, per the paper's Theorem 2). Region *assignment* of a fresh query
// is heuristic — the API does not expose region boundaries — and uses the
// nearest harvested probe; Verify reports how often that heuristic agrees
// with the hidden model on held-out instances.
package extract

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// Region is one harvested locally linear region: the probe that produced it
// and the classifier's logits relative to class 0.
type Region struct {
	Probe mat.Vec
	// RelW[c] and RelB[c] hold D_{c,0} and B_{c,0}; entry 0 is the zero
	// vector / zero scalar.
	RelW []mat.Vec
	RelB []float64
}

// Logits returns the region's relative logits [0, D_{1,0}x+B_1, ...].
func (r *Region) Logits(x mat.Vec) mat.Vec {
	out := make(mat.Vec, len(r.RelW))
	for c := 1; c < len(r.RelW); c++ {
		out[c] = r.RelW[c].Dot(x) + r.RelB[c]
	}
	return out
}

// Predict returns the region classifier's probabilities.
func (r *Region) Predict(x mat.Vec) mat.Vec { return nn.Softmax(r.Logits(x)) }

// Surrogate is a patchwork clone of a hidden PLM built from harvested
// regions. It implements plm.Model.
type Surrogate struct {
	dim     int
	classes int
	regions []*Region
}

var _ plm.Model = (*Surrogate)(nil)

// Dim returns the input dimensionality.
func (s *Surrogate) Dim() int { return s.dim }

// Classes returns the class count.
func (s *Surrogate) Classes() int { return s.classes }

// NumRegions returns how many regions have been harvested.
func (s *Surrogate) NumRegions() int { return len(s.regions) }

// Regions returns the harvested regions in harvest order. The slice and
// its entries are shared storage — treat them as read-only.
func (s *Surrogate) Regions() []*Region { return s.regions }

// nearestRegion picks the region whose probe is closest to x.
func (s *Surrogate) nearestRegion(x mat.Vec) *Region {
	var best *Region
	bestDist := 0.0
	for _, r := range s.regions {
		d := x.L2Dist(r.Probe)
		if best == nil || d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}

// Predict routes x to the nearest harvested region's exact classifier.
func (s *Surrogate) Predict(x mat.Vec) mat.Vec {
	r := s.nearestRegion(x)
	if r == nil {
		out := make(mat.Vec, s.classes)
		return out.Fill(1 / float64(s.classes))
	}
	return r.Predict(x)
}

// RegionAt returns the harvested region that would serve x, or nil.
func (s *Surrogate) RegionAt(x mat.Vec) *Region { return s.nearestRegion(x) }

// Extractor steals regions from a hidden model through its API.
type Extractor struct {
	cfg core.Config
	o   *core.OpenAPI
}

// New returns an extractor driven by the given OpenAPI configuration.
func New(cfg core.Config) *Extractor { return &Extractor{cfg: cfg, o: core.New(cfg)} }

// Harvest recovers the locally linear region around each probe and returns
// the assembled surrogate. Probes whose interpretation fails (e.g. exactly
// on a boundary) are skipped; an error is returned only when every probe
// fails.
func (e *Extractor) Harvest(model plm.Model, probes []mat.Vec) (*Surrogate, error) {
	if len(probes) == 0 {
		return nil, fmt.Errorf("extract: no probes")
	}
	s := &Surrogate{dim: model.Dim(), classes: model.Classes()}
	var firstErr error
	for _, p := range probes {
		region, err := e.harvestOne(model, p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.regions = append(s.regions, region)
	}
	if len(s.regions) == 0 {
		return nil, fmt.Errorf("extract: all %d probes failed: %w", len(probes), firstErr)
	}
	return s, nil
}

func (e *Extractor) harvestOne(model plm.Model, probe mat.Vec) (*Region, error) {
	interp, err := e.o.Interpret(model, probe, 0)
	if err != nil {
		return nil, err
	}
	return regionFromInterp(probe, interp, model.Dim(), model.Classes())
}

// HarvestPool is Harvest on the concurrent fast path: probes are interpreted
// by a core.Pool of workers sharing one batched argmax pre-query, so the
// bulk extraction workload rides the same batching layers as every other
// pool job: one round trip for every probe's argmax, then one per sample
// set against a batch-capable remote. Each probe's one
// converged interpretation (of the predicted class) is reused for every
// class, InterpretAll-style, via the antisymmetry of the pair differences;
// no extra queries per class.
//
// Like Harvest, failed probes are skipped and an error is returned only when
// every probe fails. Results are deterministic for a fixed worker count.
func (e *Extractor) HarvestPool(model plm.Model, probes []mat.Vec, workers int) (*Surrogate, error) {
	if len(probes) == 0 {
		return nil, fmt.Errorf("extract: no probes")
	}
	if workers <= 0 {
		workers = 1
	}
	pool := core.NewPool(e.cfg, workers)
	results := pool.InterpretMany(model, probes)
	s := &Surrogate{dim: model.Dim(), classes: model.Classes()}
	var firstErr error
	for i, res := range results {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		region, err := regionFromInterp(probes[i], res.Interp, model.Dim(), model.Classes())
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.regions = append(s.regions, region)
	}
	if len(s.regions) == 0 {
		return nil, fmt.Errorf("extract: all %d probes failed: %w", len(probes), firstErr)
	}
	return s, nil
}

// HarvestExact builds the surrogate straight from a white-box model — the
// owner-side export path, with no API probing at all. Probes sharing a
// locally linear region collapse into one harvested Region: one batched
// pattern pass over the probes, and each distinct region's closed form is
// composed once through the region cache (openbox.LocalAtAll: the model's
// own cache when it is one, else a transient one). The surrogate is exact on
// every probed region by construction.
func HarvestExact(model plm.RegionModel, probes []mat.Vec) (*Surrogate, error) {
	if len(probes) == 0 {
		return nil, fmt.Errorf("extract: no probes")
	}
	for i, p := range probes {
		if len(p) != model.Dim() {
			return nil, fmt.Errorf("extract: probe %d length %d != %d", i, len(p), model.Dim())
		}
	}
	lins, err := openbox.LocalAtAll(model, probes)
	if err != nil {
		return nil, err
	}
	s := &Surrogate{dim: model.Dim(), classes: model.Classes()}
	seen := make(map[string]bool, len(lins))
	for i, lin := range lins {
		key := lin.Key
		if key == "" {
			// A family that does not fingerprint its regions still dedupes
			// within this harvest via pointer identity from the cache.
			key = fmt.Sprintf("ptr-%p", lin)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		s.regions = append(s.regions, regionFromLinear(probes[i], lin))
	}
	return s, nil
}

// regionFromLinear rebases an absolute region classifier (W, b) onto the
// class-0-relative form a Region stores: RelW[c] = W_c − W_0 and
// RelB[c] = b_c − b_0, which predict the same distribution by softmax shift
// invariance.
func regionFromLinear(probe mat.Vec, lin *plm.Linear) *Region {
	C := lin.Classes()
	r := &Region{
		Probe: probe.Clone(),
		RelW:  make([]mat.Vec, C),
		RelB:  make([]float64, C),
	}
	w0 := lin.W.RawRow(0)
	r.RelW[0] = mat.NewVec(lin.Dim())
	for c := 1; c < C; c++ {
		r.RelW[c] = lin.W.Row(c).SubInPlace(w0)
		r.RelB[c] = lin.B[c] - lin.B[0]
	}
	return r
}

// regionFromInterp rebases one interpretation — of any class c* — onto the
// class-0-relative form a Region stores. With D_{c*,c'} = W_{c*} − W_{c'}
// from the interpretation, the wanted W_c − W_0 is D_{c*,0} − D_{c*,c}
// (and D_{c*,c*} = 0), so a single converged sample set yields the whole
// region classifier whatever class anchored it.
func regionFromInterp(probe mat.Vec, interp *plm.Interpretation, dim, C int) (*Region, error) {
	cs := interp.Class
	d0 := mat.NewVec(dim) // D_{c*,0}; zero when c* == 0
	var b0 float64
	if cs != 0 {
		if interp.PairDiffs[0] == nil {
			return nil, fmt.Errorf("extract: missing pair (%d,0)", cs)
		}
		d0 = interp.PairDiffs[0]
		b0 = interp.Biases[0]
	}
	r := &Region{
		Probe: probe.Clone(),
		RelW:  make([]mat.Vec, C),
		RelB:  make([]float64, C),
	}
	r.RelW[0] = mat.NewVec(dim)
	for c := 1; c < C; c++ {
		if c == cs {
			r.RelW[c] = d0.Clone()
			r.RelB[c] = b0
			continue
		}
		if interp.PairDiffs[c] == nil {
			return nil, fmt.Errorf("extract: missing pair (%d,%d)", cs, c)
		}
		r.RelW[c] = d0.Sub(interp.PairDiffs[c])
		r.RelB[c] = b0 - interp.Biases[c]
	}
	return r, nil
}

// Fidelity reports how well the surrogate mimics the hidden model on test
// instances: label agreement rate and the mean total-variation distance
// between the two predicted distributions.
type Fidelity struct {
	N              int
	LabelAgreement float64
	MeanTVDistance float64
}

// Verify measures surrogate fidelity against the (still hidden) model on the
// given instances, using only API calls.
func Verify(s *Surrogate, model plm.Model, xs []mat.Vec) (Fidelity, error) {
	if len(xs) == 0 {
		return Fidelity{}, fmt.Errorf("extract: no verification instances")
	}
	var agree int
	var tv float64
	for _, x := range xs {
		want := model.Predict(x)
		got := s.Predict(x)
		if want.ArgMax() == got.ArgMax() {
			agree++
		}
		var d float64
		for i := range want {
			diff := want[i] - got[i]
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
		tv += d / 2
	}
	n := float64(len(xs))
	return Fidelity{
		N:              len(xs),
		LabelAgreement: float64(agree) / n,
		MeanTVDistance: tv / n,
	}, nil
}
