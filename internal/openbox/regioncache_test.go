package openbox

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
)

// clusteredInstances returns reps copies of each of k base points with a
// perturbation small enough to stay in the base point's linear region
// essentially always — the region-sharing workload ExtractAll exploits.
// Exact duplicates (eps = 0) share regions by construction.
func clusteredInstances(rng *rand.Rand, d, k, reps int, eps float64) []mat.Vec {
	var xs []mat.Vec
	for i := 0; i < k; i++ {
		base := randVec(rng, d)
		for r := 0; r < reps; r++ {
			x := base.Clone()
			for j := range x {
				x[j] += eps * rng.NormFloat64()
			}
			xs = append(xs, x)
		}
	}
	return xs
}

func TestExtractAllBitIdenticalToExtract(t *testing.T) {
	n := randNet(31, 7, 14, 10, 5)
	rng := rand.New(rand.NewSource(32))
	xs := clusteredInstances(rng, 7, 6, 5, 0)
	rc := NewRegionCacheOpts(n, StoreOptions{})
	got, err := rc.ExtractAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, err := Extract(n, x)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Key != want.Key {
			t.Fatalf("instance %d: key %q != %q", i, got[i].Key, want.Key)
		}
		if len(got[i].B) != len(want.B) {
			t.Fatalf("instance %d: %d biases, want %d", i, len(got[i].B), len(want.B))
		}
		for c := range want.B {
			if got[i].B[c] != want.B[c] {
				t.Fatalf("instance %d bias %d: %v != %v (bit-exact)", i, c, got[i].B[c], want.B[c])
			}
		}
		for r := 0; r < want.W.Rows(); r++ {
			gr, wr := got[i].W.RawRow(r), want.W.RawRow(r)
			for c := range wr {
				if gr[c] != wr[c] {
					t.Fatalf("instance %d W(%d,%d): %v != %v (bit-exact)", i, r, c, gr[c], wr[c])
				}
			}
		}
	}
}

// TestExtractAllComposesPerRegionNotPerInstance is the acceptance check:
// over clustered inputs the composition counter must stay strictly below
// the instance count, and exactly match the number of distinct regions.
func TestExtractAllComposesPerRegionNotPerInstance(t *testing.T) {
	n := randNet(33, 6, 12, 8, 3)
	rng := rand.New(rand.NewSource(34))
	xs := clusteredInstances(rng, 6, 4, 8, 0) // 32 instances, 4 base points
	rc := NewRegionCacheOpts(n, StoreOptions{})
	out, err := rc.ExtractAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, lin := range out {
		distinct[lin.Key] = true
	}
	st := rc.Stats()
	if st.Compositions >= int64(len(xs)) {
		t.Fatalf("%d compositions for %d instances; want strictly fewer", st.Compositions, len(xs))
	}
	if st.Compositions != int64(len(distinct)) {
		t.Fatalf("%d compositions, want one per distinct region (%d)", st.Compositions, len(distinct))
	}
	// A second pass over the same instances must be all hits.
	before := rc.Stats().Compositions
	if _, err := rc.ExtractAll(xs); err != nil {
		t.Fatal(err)
	}
	if after := rc.Stats().Compositions; after != before {
		t.Fatalf("second pass recomposed (%d -> %d)", before, after)
	}
}

func TestRegionCacheLocalAtHitsAndMisses(t *testing.T) {
	n := randNet(35, 5, 10, 4)
	rng := rand.New(rand.NewSource(36))
	x := randVec(rng, 5)
	rc := NewRegionCacheOpts(n, StoreOptions{})
	first, err := rc.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	second, err := rc.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("repeat LocalAt did not return the shared cached value")
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Compositions != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 composition", st)
	}
}

// TestRegionCacheEvictionStaysCorrect bounds the cache at one region and
// alternates between two regions: every extraction after an eviction must
// recompose and still agree with the uncached Extract bit for bit.
func TestRegionCacheEvictionStaysCorrect(t *testing.T) {
	n := randNet(37, 5, 9, 7, 3)
	rng := rand.New(rand.NewSource(38))
	var a, b mat.Vec
	for {
		a, b = randVec(rng, 5), randVec(rng, 5)
		if PatternKey(n.ActivationPattern(a)) != PatternKey(n.ActivationPattern(b)) {
			break
		}
	}
	rc := NewRegionCacheOpts(n, StoreOptions{Capacity: 1})
	for round := 0; round < 3; round++ {
		for _, x := range []mat.Vec{a, b} {
			got, err := rc.LocalAt(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Extract(n, x)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != want.Key {
				t.Fatalf("round %d: key %q != %q", round, got.Key, want.Key)
			}
			for c := range want.B {
				if got.B[c] != want.B[c] {
					t.Fatalf("round %d bias %d: %v != %v", round, c, got.B[c], want.B[c])
				}
			}
			if rc.Len() > 1 {
				t.Fatalf("round %d: cache holds %d entries, cap 1", round, rc.Len())
			}
		}
	}
	st := rc.Stats()
	if st.Evictions == 0 {
		t.Fatal("alternating two regions through a cap-1 cache never evicted")
	}
	// 6 extractions alternating two regions through a cap-1 cache: every
	// access after the first two misses evicts the other region, so all six
	// compose.
	if st.Compositions != 6 {
		t.Fatalf("%d compositions, want 6", st.Compositions)
	}
}

func TestRegionCacheConcurrent(t *testing.T) {
	n := randNet(39, 6, 11, 8, 4)
	rng := rand.New(rand.NewSource(40))
	xs := clusteredInstances(rng, 6, 5, 4, 0)
	rc := NewRegionCacheOpts(n, StoreOptions{Capacity: 3}) // bounded: exercise eviction under contention
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				x := xs[(w+round)%len(xs)]
				lin, err := rc.LocalAt(x)
				if err != nil {
					errs <- err
					return
				}
				if lin.Key != PatternKey(n.ActivationPattern(x)) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPLNNPredictBatchBitIdentical(t *testing.T) {
	n := randNet(41, 6, 9, 4)
	rng := rand.New(rand.NewSource(42))
	p := &PLNN{Net: n}
	xs := clusteredInstances(rng, 6, 3, 2, 0.01)
	got, err := p.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := p.Predict(x)
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("batch prediction %d class %d: %v != %v", i, c, got[i][c], want[c])
			}
		}
	}
	if _, err := p.PredictBatch([]mat.Vec{{1, 2}}); err == nil {
		t.Fatal("expected error on wrong-dimension batch item")
	}
}

func TestCachedPLNNLocalAtMatchesExtract(t *testing.T) {
	n := randNet(43, 5, 8, 3)
	rng := rand.New(rand.NewSource(44))
	p := NewCachedPLNNOpts(n, StoreOptions{Capacity: 16})
	x := randVec(rng, 5)
	got, err := p.LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Extract(n, x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || !got.W.EqualApprox(want.W, 0) {
		t.Fatal("cached PLNN LocalAt diverged from Extract")
	}
	if p.Regions.Stats().Misses != 1 {
		t.Fatalf("stats %+v, want one miss", p.Regions.Stats())
	}
}
