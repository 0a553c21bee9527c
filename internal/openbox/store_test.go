package openbox

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/plm"
)

func storeLinear(t testing.TB, key string, fill float64) *plm.Linear {
	t.Helper()
	w := mat.NewDenseFrom(2, 3, []float64{fill, 1, 2, 3, 4, 5})
	lin, err := plm.NewLinear(w, mat.Vec{fill, -fill}, key)
	if err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	return lin
}

func TestMemStoreCountersAndBytes(t *testing.T) {
	s := NewStore(StoreOptions{Capacity: 2})
	a := storeLinear(t, "a", 1)
	perEntry := plm.LinearBytes(a) // 2*3 + 2 floats = 64 bytes

	if _, ok := s.Lookup("a"); ok {
		t.Fatalf("lookup hit on empty store")
	}
	s.Insert("a", a)
	s.Insert("b", storeLinear(t, "b", 2))
	if got, ok := s.Lookup("a"); !ok || got != a {
		t.Fatalf("lookup did not return the shared pointer")
	}
	// Duplicate insert keeps the incumbent.
	dup := storeLinear(t, "a", 9)
	if kept := s.Insert("a", dup); kept != a {
		t.Fatalf("duplicate insert replaced incumbent")
	}
	// Third key evicts the LRU entry ("b": "a" was just touched).
	s.Insert("c", storeLinear(t, "c", 3))
	if _, ok := s.Lookup("b"); ok {
		t.Fatalf("expected b evicted")
	}
	st := s.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != 2*perEntry {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 2*perEntry)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// countingStore is a test double for the durable tier.
type countingStore struct {
	mu      sync.Mutex
	m       map[string]*plm.Linear
	lookups int
	inserts int
}

func (c *countingStore) Lookup(key string) (*plm.Linear, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	lin, ok := c.m[key]
	return lin, ok
}

func (c *countingStore) Insert(key string, lin *plm.Linear) *plm.Linear {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inserts++
	if inc, ok := c.m[key]; ok {
		return inc
	}
	c.m[key] = lin
	return lin
}

func (c *countingStore) Stats() plm.StoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return plm.StoreStats{Size: len(c.m)}
}

func (c *countingStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func TestTieredStorePromotesAndWritesThrough(t *testing.T) {
	back := &countingStore{m: make(map[string]*plm.Linear)}
	s := NewStore(StoreOptions{Capacity: 1, Backing: back})

	a := storeLinear(t, "a", 1)
	s.Insert("a", a)
	if back.Len() != 1 {
		t.Fatalf("insert did not write through")
	}
	// Front hit: the durable tier must not be consulted again.
	back.mu.Lock()
	lookupsBefore := back.lookups
	back.mu.Unlock()
	if got, ok := s.Lookup("a"); !ok || got != a {
		t.Fatalf("front lookup failed")
	}
	back.mu.Lock()
	if back.lookups != lookupsBefore {
		t.Fatalf("front hit consulted the durable tier")
	}
	back.mu.Unlock()

	// Evict "a" from the tiny front; it must still be served via the back
	// and re-promoted.
	s.Insert("b", storeLinear(t, "b", 2))
	if _, ok := s.Lookup("a"); !ok {
		t.Fatalf("back tier did not serve evicted key")
	}
	if _, ok := s.Lookup("a"); !ok {
		t.Fatalf("promotion lost the key")
	}

	// Cold miss counts once, from the durable tier's perspective.
	if _, ok := s.Lookup("nope"); ok {
		t.Fatalf("phantom hit")
	}
	st := s.Stats()
	if st.Size != back.Len() {
		t.Fatalf("tiered Size %d != back size %d", st.Size, back.Len())
	}
	if s.Len() != back.Len() {
		t.Fatalf("tiered Len %d != back len %d", s.Len(), back.Len())
	}
}

// TestStoreConstructorsAgree: the three ways to put a region store in
// front of a network find the same region and report through one hook.
func TestStoreConstructorsAgree(t *testing.T) {
	net := smallNet(t)
	opts := StoreOptions{Capacity: 4}
	rc := NewRegionCacheOpts(net, opts)
	p := NewCachedPLNNOpts(net, opts)
	m := CacheRegionModelOpts(&PLNN{Net: net}, opts)
	if rc == nil || p == nil || m == nil {
		t.Fatalf("constructor returned nil")
	}
	x := make(mat.Vec, net.InputDim())
	for i := range x {
		x[i] = float64(i) - 1.5
	}
	a, err := rc.LocalAt(x)
	if err != nil {
		t.Fatalf("LocalAt: %v", err)
	}
	b, err := p.LocalAt(x)
	if err != nil {
		t.Fatalf("PLNN LocalAt: %v", err)
	}
	c, err := m.LocalAt(x)
	if err != nil {
		t.Fatalf("wrapped model LocalAt: %v", err)
	}
	if a.Key != b.Key || a.Key != c.Key {
		t.Fatalf("constructors disagree on region key")
	}
	var rep StoreReporter = p
	if rep.RegionCompositions() != 1 {
		t.Fatalf("compositions = %d, want 1", rep.RegionCompositions())
	}
	if st := rep.RegionStoreStats(); st.Size != 1 {
		t.Fatalf("store stats = %+v", st)
	}
}

func TestConcurrentTieredRegionCache(t *testing.T) {
	net := smallNet(t)
	back := &countingStore{m: make(map[string]*plm.Linear)}
	rc := NewRegionCacheOpts(net, StoreOptions{Capacity: 2, Backing: back})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := make(mat.Vec, net.InputDim())
				for j := range x {
					x[j] = float64((seed+i*j)%7) - 3
				}
				if _, err := rc.LocalAt(x); err != nil {
					t.Errorf("LocalAt: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if rc.Len() == 0 {
		t.Fatalf("nothing stored")
	}
}

func smallNet(t testing.TB) *nn.Network {
	t.Helper()
	return randNet(5, 4, 6, 3)
}
