package api

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/mat"
	"repro/internal/plm"
)

// ResponseCache is a bounded LRU response cache meant to sit in front of a
// served model — plmserve mounts it between the HTTP server and the shard
// router (`plmserve -cache N`). Two probes share an entry iff their inputs
// are bitwise equal. Entries are promoted on every hit, so a hot working
// set survives a long tail of one-off probes.
//
// Batch requests are answered entry-wise: hits come from the cache, the
// misses travel to the inner model as one (smaller) batch, and the merged
// answers preserve submission order. It implements plm.Model and
// plm.BatchPredictor and is safe for concurrent use.
type ResponseCache struct {
	inner plm.Model

	mu sync.Mutex
	c  *lru.Cache[mat.Vec]

	hits, misses, evictions atomic.Int64
}

// NewResponseCache wraps inner with an LRU cache of at most capacity
// responses. Capacity must be positive — an unbounded response cache in a
// server is a memory leak with a flag name.
func NewResponseCache(inner plm.Model, capacity int) (*ResponseCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("api: response cache capacity %d, need > 0", capacity)
	}
	return &ResponseCache{inner: inner, c: lru.New[mat.Vec](capacity)}, nil
}

// Inner returns the wrapped model, so stats handlers can reach through to a
// shard's per-replica counters.
func (rc *ResponseCache) Inner() plm.Model { return rc.inner }

// Dim forwards to the wrapped model.
func (rc *ResponseCache) Dim() int { return rc.inner.Dim() }

// Classes forwards to the wrapped model.
func (rc *ResponseCache) Classes() int { return rc.inner.Classes() }

// StoreStats returns the unified accounting shape (see plm.StoreStats).
// Bytes counts the cached probability vectors' float payloads.
func (rc *ResponseCache) StoreStats() plm.StoreStats {
	rc.mu.Lock()
	size := rc.c.Len()
	rc.mu.Unlock()
	var bytes int64
	if size > 0 {
		bytes = int64(size) * int64(rc.inner.Classes()) * 8
	}
	return plm.StoreStats{
		Hits:      rc.hits.Load(),
		Misses:    rc.misses.Load(),
		Evictions: rc.evictions.Load(),
		Size:      size,
		Bytes:     bytes,
	}
}

// cacheKey is x's exact bit pattern: two inputs share a key iff they are
// bitwise equal.
func cacheKey(x mat.Vec) string {
	buf := make([]byte, 0, len(x)*8)
	for _, v := range x {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(b>>uint(s)))
		}
	}
	return string(buf)
}

// Len returns the number of cached responses.
func (rc *ResponseCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.c.Len()
}

// lookup returns the cached response for key, promoting it on a hit.
func (rc *ResponseCache) lookup(key string) (mat.Vec, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.c.Get(key)
}

// insert stores p under key, evicting the least-recently-used entry when
// full. Concurrent inserts of the same key keep the incumbent.
func (rc *ResponseCache) insert(key string, p mat.Vec) {
	rc.mu.Lock()
	_, _, evicted := rc.c.Add(key, p)
	rc.mu.Unlock()
	if evicted {
		rc.evictions.Add(1)
	}
}

// Predict answers one probe as a one-row batch. The inner model's errors
// are not cached; behind the errorless plm.Model surface a total inner
// failure degrades to the uniform distribution like Client.Predict.
func (rc *ResponseCache) Predict(x mat.Vec) mat.Vec {
	ys, err := rc.PredictBatch([]mat.Vec{x})
	if err != nil {
		out := make(mat.Vec, rc.Classes())
		return out.Fill(1 / float64(rc.Classes()))
	}
	return ys[0]
}

// PredictBatch answers cached items locally and ships only the misses to
// the inner model (as one batch when it has a batch path), merging answers
// back in submission order. Duplicate probes within one batch coalesce into
// a single inner query; the duplicates count as hits — they cost no model query. The first inner error fails the
// whole batch, matching Shard's all-or-nothing contract.
func (rc *ResponseCache) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return rc.PredictBatchCtx(context.Background(), xs)
}

// PredictBatchCtx is PredictBatch with the caller's context threaded
// through to a context-aware inner model, so a caller timeout cancels the
// miss batch's fan-out behind the cache.
func (rc *ResponseCache) PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	out := make([]mat.Vec, len(xs))
	keys := make([]string, len(xs))
	slots := make([]int, len(xs)) // miss slot per item; -1 = cache hit
	slotByKey := make(map[string]int)
	var missXs []mat.Vec
	var missKeys []string
	for i, x := range xs {
		keys[i] = cacheKey(x)
		if p, ok := rc.lookup(keys[i]); ok {
			rc.hits.Add(1)
			out[i] = p.Clone()
			slots[i] = -1
			continue
		}
		if s, ok := slotByKey[keys[i]]; ok {
			rc.hits.Add(1) // coalesced with an earlier miss in this batch
			slots[i] = s
			continue
		}
		rc.misses.Add(1)
		slotByKey[keys[i]] = len(missXs)
		slots[i] = len(missXs)
		missXs = append(missXs, x)
		missKeys = append(missKeys, keys[i])
	}
	if len(missXs) == 0 {
		return out, nil
	}
	var ys []mat.Vec
	var err error
	if cb, ok := rc.inner.(ctxBatchPredictor); ok {
		ys, err = cb.PredictBatchCtx(ctx, missXs)
	} else {
		ys, err = plm.PredictAll(rc.inner, missXs)
	}
	if err != nil {
		return nil, err
	}
	// One insert per distinct miss, in submission order — inserting in map
	// iteration order would make the cache's recency and eviction sequence
	// differ run to run for the same batch.
	for s, key := range missKeys {
		rc.insert(key, ys[s].Clone())
	}
	for i := range xs {
		if slots[i] >= 0 {
			out[i] = ys[slots[i]].Clone()
		}
	}
	return out, nil
}

var _ plm.Model = (*ResponseCache)(nil)
var _ plm.BatchPredictor = (*ResponseCache)(nil)
var _ ctxBatchPredictor = (*ResponseCache)(nil)
