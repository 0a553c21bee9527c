package openbox

import (
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/plm"
)

// CacheRegionModelOpts wraps a white-box model in the region cache: the
// closed-form classifier of each locally linear region is composed once,
// stored under its region key in the store stack built from opts (see
// NewStore), and shared by every later lookup in that region. Composing a
// PLNN's (W_eff, b_eff) costs one GEMM per layer over the full input
// dimensionality, so the second lookup in a region is a store hit instead
// of a GEMM chain — the region structure OpenBox makes explicit, exploited
// for compute. The evaluation harness wraps its ground-truth model with
// this before a metrics run: RD/WD/L1Dist query LocalAt per probe and per
// sample, but only per region does the answer change.
//
// Families implementing the pattern hook (plm.PatternRegionModel: PLNN,
// MaxOut, LMT and any type embedding one) pay one batched pattern pass per
// call and compose a miss straight from the captured pattern. A model
// without the hook falls back to RegionKey per input and LocalAt per miss.
// The cache is safe for concurrent use; stored *plm.Linear values are
// shared between callers and must be treated as read-only.
func CacheRegionModelOpts(m plm.RegionModel, opts StoreOptions) plm.RegionModel {
	return &cachedRegionModel{RegionModel: m, store: NewStore(opts)}
}

// LocalAtAll returns the locally linear classifier of every instance
// through m's region cache when m is one, and otherwise through a transient
// cache scoped to this call: one pattern pass for the batch, one
// composition per distinct region. out[i] is bit-identical to
// m.LocalAt(xs[i]).
func LocalAtAll(m plm.RegionModel, xs []mat.Vec) ([]*plm.Linear, error) {
	c, ok := m.(*cachedRegionModel)
	if !ok {
		c = &cachedRegionModel{RegionModel: m, store: NewStore(StoreOptions{})}
	}
	return c.LocalAtAll(xs)
}

// cachedRegionModel memoizes a RegionModel's classifiers per region key.
type cachedRegionModel struct {
	plm.RegionModel

	store        RegionStore
	compositions atomic.Int64
}

var _ StoreReporter = (*cachedRegionModel)(nil)
var _ plm.BatchPredictor = (*cachedRegionModel)(nil)

// PredictBatch keeps the wrapped model's batched forward, so a cached PLNN
// still answers a batch with one GEMM per layer; a model without one is
// looped through Predict.
func (c *cachedRegionModel) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return plm.PredictAll(c.RegionModel, xs)
}

// LocalAt is a batch of one.
func (c *cachedRegionModel) LocalAt(x mat.Vec) (*plm.Linear, error) {
	out, err := c.LocalAtAll([]mat.Vec{x})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// LocalAtAll resolves every instance's region key in one pattern pass,
// looks each distinct key up once, and composes each miss once. The
// composition runs outside any store lock: two goroutines missing the same
// fresh region may both compose, but the results are identical and Insert
// keeps only the incumbent.
func (c *cachedRegionModel) LocalAtAll(xs []mat.Vec) ([]*plm.Linear, error) {
	keys, compose, err := c.patterns(xs)
	if err != nil {
		return nil, err
	}
	out := make([]*plm.Linear, len(keys))
	seen := make(map[string]*plm.Linear, len(keys))
	for i, key := range keys {
		lin, ok := seen[key]
		if !ok {
			if lin, ok = c.store.Lookup(key); !ok {
				c.compositions.Add(1)
				fresh, err := compose(i)
				if err != nil {
					return nil, err
				}
				lin = c.store.Insert(key, fresh)
			}
			seen[key] = lin
		}
		out[i] = lin
	}
	return out, nil
}

// patterns returns the region keys of xs and a composer by index, through
// the model's pattern hook when it has one.
func (c *cachedRegionModel) patterns(xs []mat.Vec) ([]string, func(int) (*plm.Linear, error), error) {
	if pm, ok := c.RegionModel.(plm.PatternRegionModel); ok {
		return pm.RegionPatterns(xs)
	}
	keys := make([]string, len(xs))
	for i, x := range xs {
		keys[i] = c.RegionModel.RegionKey(x)
	}
	return keys, func(i int) (*plm.Linear, error) { return c.RegionModel.LocalAt(xs[i]) }, nil
}

// RegionStoreStats implements StoreReporter.
func (c *cachedRegionModel) RegionStoreStats() plm.StoreStats { return c.store.Stats() }

// RegionCompositions implements StoreReporter.
func (c *cachedRegionModel) RegionCompositions() int64 { return c.compositions.Load() }
