package openbox

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/plm"
)

// newCache wraps m in the region cache and exposes its concrete type, so
// tests can read its counters.
func newCache(m plm.RegionModel, opts StoreOptions) *cachedRegionModel {
	return CacheRegionModelOpts(m, opts).(*cachedRegionModel)
}

// clusteredInstances returns reps copies of each of k base points with a
// perturbation small enough to stay in the base point's linear region
// essentially always — the region-sharing workload the batched cache exploits.
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
	got, err := LocalAtAll(&PLNN{Net: n}, xs)
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
	rc := newCache(&PLNN{Net: n}, StoreOptions{})
	out, err := rc.LocalAtAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, lin := range out {
		distinct[lin.Key] = true
	}
	comps := rc.RegionCompositions()
	if comps >= int64(len(xs)) {
		t.Fatalf("%d compositions for %d instances; want strictly fewer", comps, len(xs))
	}
	if comps != int64(len(distinct)) {
		t.Fatalf("%d compositions, want one per distinct region (%d)", comps, len(distinct))
	}
	// A second pass over the same instances must be all hits.
	before := rc.RegionCompositions()
	if _, err := rc.LocalAtAll(xs); err != nil {
		t.Fatal(err)
	}
	if after := rc.RegionCompositions(); after != before {
		t.Fatalf("second pass recomposed (%d -> %d)", before, after)
	}
}

func TestRegionCacheLocalAtHitsAndMisses(t *testing.T) {
	n := randNet(35, 5, 10, 4)
	rng := rand.New(rand.NewSource(36))
	x := randVec(rng, 5)
	rc := newCache(&PLNN{Net: n}, StoreOptions{})
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
	st := rc.RegionStoreStats()
	if st.Hits != 1 || st.Misses != 1 || rc.RegionCompositions() != 1 {
		t.Fatalf("stats %+v, %d compositions; want 1 hit / 1 miss / 1 composition", st, rc.RegionCompositions())
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
	rc := newCache(&PLNN{Net: n}, StoreOptions{Capacity: 1})
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
			if size := rc.RegionStoreStats().Size; size > 1 {
				t.Fatalf("round %d: cache holds %d entries, cap 1", round, size)
			}
		}
	}
	if rc.RegionStoreStats().Evictions == 0 {
		t.Fatal("alternating two regions through a cap-1 cache never evicted")
	}
	// 6 extractions alternating two regions through a cap-1 cache: every
	// access after the first two misses evicts the other region, so all six
	// compose.
	if comps := rc.RegionCompositions(); comps != 6 {
		t.Fatalf("%d compositions, want 6", comps)
	}
}

func TestRegionCacheConcurrent(t *testing.T) {
	n := randNet(39, 6, 11, 8, 4)
	rng := rand.New(rand.NewSource(40))
	xs := clusteredInstances(rng, 6, 5, 4, 0)
	rc := CacheRegionModelOpts(&PLNN{Net: n}, StoreOptions{Capacity: 3}) // bounded: exercise eviction under contention
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
				if want := PatternKey(n.ActivationPattern(x)); lin.Key != want {
					errs <- fmt.Errorf("worker %d round %d: key %q, want %q", w, round, lin.Key, want)
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
	// The region cache keeps the batched forward of the model it wraps.
	cached := CacheRegionModelOpts(p, StoreOptions{}).(plm.BatchPredictor)
	for _, bp := range []plm.BatchPredictor{p, cached} {
		got, err := bp.PredictBatch(xs)
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
	}
	if _, err := p.PredictBatch([]mat.Vec{{1, 2}}); err == nil {
		t.Fatal("expected error on wrong-dimension batch item")
	}
}

func TestCachedPLNNLocalAtMatchesExtract(t *testing.T) {
	n := randNet(43, 5, 8, 3)
	rng := rand.New(rand.NewSource(44))
	p := newCache(&PLNN{Net: n}, StoreOptions{Capacity: 16})
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
	if st := p.RegionStoreStats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want one miss", st)
	}
}

// embedsPLNN is a type that embeds *PLNN the way repro.DemoModel does: it
// must get the pattern hook through the embedding.
type embedsPLNN struct{ *PLNN }

// TestRegionCacheFamilies runs the one region cache over every white-box
// family: PLNN (ReLU and Leaky), a type embedding a PLNN, MaxOut, LMT, and
// a RegionModel without the pattern hook. Every lookup must match the
// family's uncached LocalAt bit for bit, each distinct region must be
// composed once, and the store options must be honoured.
func TestRegionCacheFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	const d = 5
	treeXs := make([]mat.Vec, 150)
	treeLabels := make([]int, len(treeXs))
	for i := range treeXs {
		treeXs[i] = randVec(rng, d)
		if treeXs[i][0]*treeXs[i][1] > 0 {
			treeLabels[i] = 1
		}
	}
	tree, err := lmt.Train(rng, treeXs, treeLabels, 2, lmt.Config{MinLeaf: 10, MaxDepth: 4, LogReg: lmt.LogRegConfig{Epochs: 10}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		model plm.RegionModel
		hook  bool
	}{
		{"plnn-relu", &PLNN{Net: randNet(61, d, 12, 8, 3)}, true},
		{"plnn-leaky", &PLNN{Net: randNet(62, d, 12, 8, 3).SetLeak(0.1)}, true},
		{"embeds-plnn", embedsPLNN{&PLNN{Net: randNet(63, d, 12, 8, 3)}}, true},
		{"maxout", &Maxout{Net: nn.NewMaxout(rand.New(rand.NewSource(64)), 3, d, 8, 3)}, true},
		{"lmt", tree, true},
		{"hookless", plainRegionModel{&Maxout{Net: nn.NewMaxout(rand.New(rand.NewSource(65)), 3, d, 8, 3)}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := tc.model.(plm.PatternRegionModel); ok != tc.hook {
				t.Fatalf("pattern hook present = %v, want %v", ok, tc.hook)
			}
			xs := clusteredInstances(rand.New(rand.NewSource(66)), d, 6, 3, 0)
			want := make([]*plm.Linear, len(xs))
			distinct := map[string]bool{}
			for i, x := range xs {
				lin, err := tc.model.LocalAt(x)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = lin
				distinct[lin.Key] = true
			}
			if len(distinct) < 2 {
				t.Fatalf("only %d distinct regions: the capacity check needs two", len(distinct))
			}
			check := func(what string, got []*plm.Linear) {
				t.Helper()
				for i := range xs {
					if got[i].Key != want[i].Key || !linearsBitIdentical(got[i], want[i]) {
						t.Fatalf("%s: instance %d differs from the uncached LocalAt", what, i)
					}
				}
			}

			c := newCache(tc.model, StoreOptions{})
			all, err := c.LocalAtAll(xs)
			if err != nil {
				t.Fatal(err)
			}
			check("LocalAtAll", all)
			one := make([]*plm.Linear, len(xs))
			for i, x := range xs {
				if one[i], err = c.LocalAt(x); err != nil {
					t.Fatal(err)
				}
			}
			check("LocalAt", one)
			if got := c.RegionCompositions(); got != int64(len(distinct)) {
				t.Fatalf("%d compositions, want one per distinct region (%d)", got, len(distinct))
			}

			capped := newCache(tc.model, StoreOptions{Capacity: 1})
			for pass := 0; pass < 2; pass++ {
				got, err := capped.LocalAtAll(xs)
				if err != nil {
					t.Fatal(err)
				}
				check("capacity 1", got)
			}
			if st := capped.RegionStoreStats(); st.Size != 1 || st.Evictions == 0 {
				t.Fatalf("capacity 1: store stats %+v, want one entry and evictions", st)
			}

			back := &countingStore{m: make(map[string]*plm.Linear)}
			if _, err := newCache(tc.model, StoreOptions{Capacity: 1, Backing: back}).LocalAtAll(xs); err != nil {
				t.Fatal(err)
			}
			if back.Len() != len(distinct) {
				t.Fatalf("backing holds %d regions, want %d", back.Len(), len(distinct))
			}
			warm := newCache(tc.model, StoreOptions{Capacity: 1, Backing: back})
			got, err := warm.LocalAtAll(xs)
			if err != nil {
				t.Fatal(err)
			}
			check("backed", got)
			if n := warm.RegionCompositions(); n != 0 {
				t.Fatalf("a cache over a full backing tier composed %d regions", n)
			}
		})
	}
}
