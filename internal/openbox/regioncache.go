package openbox

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/plm"
)

// RegionCache memoizes the closed-form affine map of a network's locally
// linear regions, keyed by PatternKey. Composing (W_eff, b_eff) costs one
// GEMM per layer over the full input dimensionality; two instances with the
// same activation pattern share the identical map, so the second extraction
// is a store lookup instead of a GEMM chain — the region structure OpenBox
// makes explicit, exploited for compute.
//
// Storage lives behind the RegionStore contract: by default an in-RAM LRU
// (capacity <= 0 keeps every region seen), optionally layered over a
// durable backing tier (the disk atlas) via StoreOptions.Backing.
// RegionCache is safe for concurrent use. Stored *plm.Linear values are
// shared between callers and must be treated as read-only (every consumer
// in this repository is).
type RegionCache struct {
	net   *nn.Network
	store RegionStore

	compositions atomic.Int64
}

// NewRegionCacheOpts returns a cache over net whose storage stack is built
// from opts (see NewStore).
func NewRegionCacheOpts(net *nn.Network, opts StoreOptions) *RegionCache {
	return &RegionCache{net: net, store: NewStore(opts)}
}

// RegionCacheStats is a point-in-time snapshot of cache behaviour.
// Compositions counts how many times the GEMM chain actually ran — the
// quantity the batched extraction keeps strictly below the instance count
// whenever instances share regions.
type RegionCacheStats struct {
	Hits, Misses, Evictions, Compositions int64
}

// Stats returns the cache counters.
func (rc *RegionCache) Stats() RegionCacheStats {
	s := rc.store.Stats()
	return RegionCacheStats{
		Hits:         s.Hits,
		Misses:       s.Misses,
		Evictions:    s.Evictions,
		Compositions: rc.compositions.Load(),
	}
}

// StoreStats returns the unified accounting shape of the underlying store
// stack (see plm.StoreStats).
func (rc *RegionCache) StoreStats() plm.StoreStats { return rc.store.Stats() }

// Compositions returns how many times the GEMM chain actually ran.
func (rc *RegionCache) Compositions() int64 { return rc.compositions.Load() }

// Store exposes the underlying store stack, for wiring stats or snapshots.
func (rc *RegionCache) Store() RegionStore { return rc.store }

// Len returns the number of regions currently stored.
func (rc *RegionCache) Len() int { return rc.store.Len() }

// LocalAt returns the memoized locally linear classifier of the region
// containing x, composing it on first sight of the region.
func (rc *RegionCache) LocalAt(x mat.Vec) (*plm.Linear, error) {
	if len(x) != rc.net.InputDim() {
		return nil, fmt.Errorf("openbox: input length %d != %d", len(x), rc.net.InputDim())
	}
	return rc.localForPattern(rc.net.ActivationPattern(x))
}

// ExtractAll returns the locally linear classifier of every instance. The
// activation patterns come from one batched forward (a GEMM per layer for
// the whole batch), and each distinct region is composed at most once —
// clustered workloads pay per region, not per instance. out[i] is
// bit-identical to Extract(net, xs[i]).
func (rc *RegionCache) ExtractAll(xs []mat.Vec) ([]*plm.Linear, error) {
	for i, x := range xs {
		if len(x) != rc.net.InputDim() {
			return nil, fmt.Errorf("openbox: batch item %d length %d != %d", i, len(x), rc.net.InputDim())
		}
	}
	if len(xs) == 0 {
		return nil, nil
	}
	patterns := rc.net.ActivationPatternBatch(xs)
	out := make([]*plm.Linear, len(xs))
	seen := make(map[string]*plm.Linear, len(xs))
	for i, pat := range patterns {
		key := PatternKey(pat)
		if lin, ok := seen[key]; ok {
			out[i] = lin
			continue
		}
		lin, err := rc.localForPattern(pat)
		if err != nil {
			return nil, err
		}
		seen[key] = lin
		out[i] = lin
	}
	return out, nil
}

// localForPattern returns the stored map for the region the pattern selects,
// composing and inserting it on a miss. The composition runs outside any
// store lock: two goroutines missing the same fresh region may both compose,
// but the results are identical and Insert keeps only the incumbent.
func (rc *RegionCache) localForPattern(pattern []bool) (*plm.Linear, error) {
	key := PatternKey(pattern)
	if lin, ok := rc.store.Lookup(key); ok {
		return lin, nil
	}
	rc.compositions.Add(1)
	lin, err := composeFromPattern(rc.net, pattern)
	if err != nil {
		return nil, err
	}
	return rc.store.Insert(key, lin), nil
}

// ExtractAll is the package-level batch extraction: activation patterns via
// the batched forward, one composition per distinct region, no persistent
// cache. out[i] is bit-identical to Extract(n, xs[i]).
func ExtractAll(n *nn.Network, xs []mat.Vec) ([]*plm.Linear, error) {
	return NewRegionCacheOpts(n, StoreOptions{}).ExtractAll(xs)
}

// CacheRegionModelOpts wraps any white-box model so repeated LocalAt calls
// for instances in an already-seen region return the memoized classifier,
// keyed by RegionKey, with the storage stack built from opts. A PLNN gets
// the pattern-level RegionCache; families implementing the per-family
// pattern hook (plm.PatternRegionModel — MaxOut, LMT) get the same
// economics through the generic cache: one pattern-building pass per call,
// hits skip the composition, and misses compose straight from the captured
// pattern instead of re-deriving it from x. A family with neither hook
// falls back to RegionKey + LocalAt (one extra derivation per miss). The
// evaluation harness wraps its ground-truth model with this before a
// metrics run: RD/WD/L1Dist query LocalAt per probe and per sample, but
// only per region does the answer change.
func CacheRegionModelOpts(m plm.RegionModel, opts StoreOptions) plm.RegionModel {
	if p, ok := m.(*PLNN); ok {
		if p.Regions != nil {
			return p
		}
		return &PLNN{Net: p.Net, Regions: NewRegionCacheOpts(p.Net, opts)}
	}
	return &cachedRegionModel{RegionModel: m, store: NewStore(opts)}
}

// cachedRegionModel memoizes LocalAt per RegionKey for any RegionModel.
type cachedRegionModel struct {
	plm.RegionModel

	store        RegionStore
	compositions atomic.Int64
}

var _ StoreReporter = (*cachedRegionModel)(nil)

func (c *cachedRegionModel) LocalAt(x mat.Vec) (*plm.Linear, error) {
	var (
		key     string
		compose func() (*plm.Linear, error)
	)
	if pm, ok := c.RegionModel.(plm.PatternRegionModel); ok {
		// The pattern hook: the key-building pass already captured the
		// region, so a miss composes from the pattern instead of walking
		// the model again.
		k, comp, err := pm.RegionPattern(x)
		if err != nil {
			return nil, err
		}
		key, compose = k, comp
	} else {
		key = c.RegionModel.RegionKey(x)
		compose = func() (*plm.Linear, error) { return c.RegionModel.LocalAt(x) }
	}
	if lin, ok := c.store.Lookup(key); ok {
		return lin, nil
	}
	c.compositions.Add(1)
	lin, err := compose()
	if err != nil {
		return nil, err
	}
	return c.store.Insert(key, lin), nil
}

// RegionStoreStats implements StoreReporter.
func (c *cachedRegionModel) RegionStoreStats() plm.StoreStats { return c.store.Stats() }

// RegionCompositions implements StoreReporter.
func (c *cachedRegionModel) RegionCompositions() int64 { return c.compositions.Load() }
