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
	for i := 0; i < 10; i++ {
		x := randVec(rng, 6)
		key, compose, err := m.RegionPattern(x)
		if err != nil {
			t.Fatal(err)
		}
		if key != m.RegionKey(x) {
			t.Fatalf("pattern key %q != RegionKey %q", key, m.RegionKey(x))
		}
		got, err := compose()
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.LocalAt(x)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want.Key || !got.B.EqualApprox(want.B, 0) {
			t.Fatalf("composed bias differs: %v vs %v", got.B, want.B)
		}
		for r := 0; r < got.W.Rows(); r++ {
			if !got.W.RawRow(r).EqualApprox(want.W.RawRow(r), 0) {
				t.Fatalf("composed row %d differs", r)
			}
		}
	}
	if _, _, err := m.RegionPattern(mat.Vec{1, 2}); err == nil {
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

func (h *hookCounter) RegionPattern(x mat.Vec) (string, func() (*plm.Linear, error), error) {
	h.patterns++
	key, compose, err := h.inner.RegionPattern(x)
	if err != nil {
		return "", nil, err
	}
	return key, func() (*plm.Linear, error) {
		h.composes++
		return compose()
	}, nil
}

var _ plm.PatternRegionModel = (*hookCounter)(nil)

func TestCacheRegionModelUsesPatternHook(t *testing.T) {
	// The satellite's contract: on families with the pattern hook (MaxOut,
	// LMT) the generic region cache pays one pattern pass per call and one
	// composition per distinct region — it never falls back to the
	// RegionKey + LocalAt pair that re-derives the region from x.
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
		t.Fatalf("RegionPattern called %d times for 2 lookups, want 2", h.patterns)
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
