package openbox

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/plm"
)

func TestMaxoutRegionPatternMatchesLocalAt(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	m := &Maxout{Net: nn.NewMaxout(rng, 3, 6, 10, 5, 4)}
	xs := make([]mat.Vec, 10)
	for i := range xs {
		xs[i] = randVec(rng, 6)
	}
	keys, compose, err := m.RegionPatterns(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if keys[i] != m.RegionKey(x) {
			t.Fatalf("pattern key %q != RegionKey %q", keys[i], m.RegionKey(x))
		}
		got, err := compose(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.LocalAt(x)
		if err != nil {
			t.Fatal(err)
		}
		if !linearsBitIdentical(got, want) || got.Key != want.Key {
			t.Fatalf("instance %d: composed classifier differs from LocalAt", i)
		}
	}
	if _, _, err := m.RegionPatterns([]mat.Vec{xs[0], {1, 2}}); err == nil {
		t.Fatal("wrong-dim input accepted")
	}
}

// hookCounter is a RegionModel that counts which surface the region cache
// uses: the per-family pattern hook, or the generic RegionKey + LocalAt
// fallback that re-derives the region from x on every call.
type hookCounter struct {
	inner                  *Maxout
	patterns, keys, locals int
	composes               int
}

func (h *hookCounter) Predict(x mat.Vec) mat.Vec { return h.inner.Predict(x) }
func (h *hookCounter) Dim() int                  { return h.inner.Dim() }
func (h *hookCounter) Classes() int              { return h.inner.Classes() }

func (h *hookCounter) RegionKey(x mat.Vec) string {
	h.keys++
	return h.inner.RegionKey(x)
}

func (h *hookCounter) LocalAt(x mat.Vec) (*plm.Linear, error) {
	h.locals++
	return h.inner.LocalAt(x)
}

func (h *hookCounter) RegionPatterns(xs []mat.Vec) ([]string, func(int) (*plm.Linear, error), error) {
	h.patterns++
	keys, compose, err := h.inner.RegionPatterns(xs)
	if err != nil {
		return nil, nil, err
	}
	return keys, func(i int) (*plm.Linear, error) {
		h.composes++
		return compose(i)
	}, nil
}

var _ plm.PatternRegionModel = (*hookCounter)(nil)

func TestCacheRegionModelUsesPatternHook(t *testing.T) {
	// On families with the pattern hook the region cache pays one pattern
	// pass per call and one composition per distinct region — it never
	// falls back to the RegionKey + LocalAt pair that re-derives the region
	// from x.
	rng := rand.New(rand.NewSource(52))
	h := &hookCounter{inner: &Maxout{Net: nn.NewMaxout(rng, 3, 5, 8, 3)}}
	cached := CacheRegionModelOpts(h, StoreOptions{})

	x := randVec(rng, 5)
	first, err := cached.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("cache hit did not return the shared region value")
	}
	if want, err := h.inner.LocalAt(x); err != nil || first.Key != want.Key {
		t.Fatalf("cached classifier wrong: %v / %v", first.Key, err)
	}
	if h.patterns != 2 {
		t.Fatalf("RegionPatterns called %d times for 2 lookups, want 2", h.patterns)
	}
	if h.composes != 1 {
		t.Fatalf("composed %d times for 1 distinct region, want 1", h.composes)
	}
	if h.keys != 0 || h.locals != 0 {
		t.Fatalf("generic fallback used (keys=%d locals=%d), hook should cover both", h.keys, h.locals)
	}
}

func TestCacheRegionModelFallbackWithoutHook(t *testing.T) {
	// A family without the hook still caches correctly through the
	// RegionKey + LocalAt pair.
	rng := rand.New(rand.NewSource(54))
	m := &Maxout{Net: nn.NewMaxout(rng, 3, 5, 8, 3)}
	cached := CacheRegionModelOpts(plainRegionModel{m}, StoreOptions{})
	x := randVec(rng, 5)
	first, err := cached.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("fallback cache hit did not return the shared value")
	}
}

// plainRegionModel hides the pattern hook, leaving only plm.RegionModel.
type plainRegionModel struct{ plm.RegionModel }
