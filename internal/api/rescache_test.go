package api

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/plm"
)

func rcProbe(rng *rand.Rand, d int) mat.Vec {
	x := make(mat.Vec, d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestResponseCacheRejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -3} {
		if _, err := NewResponseCache(testModel(1), c); err == nil {
			t.Fatalf("capacity %d accepted", c)
		}
	}
}

func TestResponseCacheLRUPromotesOnHit(t *testing.T) {
	inner := NewCounter(testModel(2))
	rc, err := NewResponseCache(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a, b, c := rcProbe(rng, 4), rcProbe(rng, 4), rcProbe(rng, 4)

	rc.Predict(a) // miss
	rc.Predict(b) // miss
	rc.Predict(a) // hit: promotes a over b
	rc.Predict(c) // miss: evicts b (least recently used), not a
	base := inner.Count()
	rc.Predict(a) // must still be cached
	if inner.Count() != base {
		t.Fatal("a was evicted although it was more recently used than b")
	}
	rc.Predict(b) // must have been evicted
	if inner.Count() != base+1 {
		t.Fatal("b survived although it was the least recently used entry")
	}
	st := rc.StoreStats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats %d/%d/%d, want hits=2 misses=4 evictions=2", st.Hits, st.Misses, st.Evictions)
	}
	if rc.Len() != 2 {
		t.Fatalf("cache holds %d entries, cap 2", rc.Len())
	}
}

func TestResponseCachePredictMatchesInner(t *testing.T) {
	model := testModel(4)
	rc, err := NewResponseCache(model, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := rcProbe(rng, 4)
	want := model.Predict(x)
	for round := 0; round < 2; round++ { // miss then hit
		got := rc.Predict(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d class %d: %v != %v", round, i, got[i], want[i])
			}
		}
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	counter := NewCounter(testModel(3))
	cache, err := NewResponseCache(counter, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vec{0.5, 0.5, 0.5, 0.5}
	p1 := cache.Predict(x)
	p2 := cache.Predict(x.Clone()) // equal value, different storage
	if !p1.EqualApprox(p2, 0) {
		t.Fatal("cache returned different answers")
	}
	if counter.Count() != 1 {
		t.Fatalf("inner model called %d times, want 1", counter.Count())
	}
	if st := cache.StoreStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d/%d", st.Hits, st.Misses)
	}
	// A different input misses.
	cache.Predict(mat.Vec{0.1, 0.5, 0.5, 0.5})
	if counter.Count() != 2 {
		t.Fatal("distinct input should reach the model")
	}
}

func TestCacheReturnsClones(t *testing.T) {
	cache, err := NewResponseCache(testModel(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vec{0, 0, 0, 0}
	cache.Predict(x)[0] = 42 // the caller mutates a miss's answer
	hit := cache.Predict(x)
	if hit[0] == 42 {
		t.Fatal("cache leaked internal storage on a miss")
	}
	hit[0] = 43 // and a hit's
	if cache.Predict(x)[0] == 43 {
		t.Fatal("cache leaked internal storage on a hit")
	}
}

func TestCacheBoundedEvictsOldest(t *testing.T) {
	counter := NewCounter(testModel(5))
	cache, err := NewResponseCache(counter, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mat.Vec{1, 0, 0, 0}, mat.Vec{0, 1, 0, 0}
	cache.Predict(a) // miss, stored
	cache.Predict(b) // miss, evicts a, stored
	cache.Predict(b) // hit: a full cache still admits new entries
	if counter.Count() != 2 {
		t.Fatalf("bounded cache: model called %d times, want 2", counter.Count())
	}
	if evictions := cache.StoreStats().Evictions; evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	cache.Predict(a) // evicted earlier, so this is a fresh miss
	if counter.Count() != 3 {
		t.Fatalf("evicted entry still served: model called %d times, want 3", counter.Count())
	}
}

func TestResponseCacheBatchCoalescesAndPreservesOrder(t *testing.T) {
	inner := NewCounter(testModel(6))
	rc, err := NewResponseCache(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a, b := rcProbe(rng, 4), rcProbe(rng, 4)
	rc.Predict(a) // warm a
	base := inner.Count()

	batch := []mat.Vec{b, a, b.Clone(), a.Clone()} // one real miss (b), rest cached/coalesced
	got, err := rc.PredictBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Count() != base+1 {
		t.Fatalf("inner answered %d probes, want 1 (the distinct miss)", inner.Count()-base)
	}
	wantA, wantB := testModel(6).Predict(a), testModel(6).Predict(b)
	for i, want := range []mat.Vec{wantB, wantA, wantB, wantA} {
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("batch item %d class %d: %v != %v", i, c, got[i][c], want[c])
			}
		}
	}
	st := rc.StoreStats()
	hits, misses := st.Hits, st.Misses
	if misses != 2 { // a's warmup + b
		t.Fatalf("misses = %d, want 2", misses)
	}
	if hits != 3 { // a hit twice, duplicate b coalesced as hit
		t.Fatalf("hits = %d, want 3", hits)
	}
}

type failingBatchModel struct{ plm.Model }

func (f failingBatchModel) PredictBatch([]mat.Vec) ([]mat.Vec, error) {
	return nil, fmt.Errorf("replica down")
}

func TestResponseCacheBatchPropagatesInnerError(t *testing.T) {
	rc, err := NewResponseCache(failingBatchModel{testModel(8)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if _, err := rc.PredictBatch([]mat.Vec{rcProbe(rng, 4)}); err == nil {
		t.Fatal("inner batch failure was swallowed")
	}
}

func TestResponseCacheConcurrent(t *testing.T) {
	rc, err := NewResponseCache(testModel(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	probes := make([]mat.Vec, 8)
	for i := range probes {
		probes[i] = rcProbe(rng, 4)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				x := probes[(w+round)%len(probes)]
				if p := rc.Predict(x); len(p) != rc.Classes() {
					panic("short prediction")
				}
				if _, err := rc.PredictBatch(probes[:2]); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServerStatsReportsCacheCounters drives a cached, sharded server over
// HTTP and checks the /stats reach-through: cache counters present and the
// replica breakdown still visible behind the cache.
func TestServerStatsReportsCacheCounters(t *testing.T) {
	model := testModel(12)
	shard, err := NewShard([]plm.Model{model, model})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewResponseCache(shard, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(rc, "cached"))
	defer srv.Close()
	client, err := Dial(srv.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	x := rcProbe(rng, 4)
	client.Predict(x)
	client.Predict(x)
	if err := client.Err(); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries        int64                     `json:"queries"`
		Caches         map[string]plm.StoreStats `json:"caches"`
		ReplicaQueries []int64                   `json:"replica_queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	rs, ok := stats.Caches["response"]
	if !ok {
		t.Fatalf("caches = %v, want a response section", stats.Caches)
	}
	if rs.Hits != 1 {
		t.Fatalf("caches.response.hits = %d, want 1", rs.Hits)
	}
	if rs.Misses != 1 {
		t.Fatalf("caches.response.misses = %d, want 1", rs.Misses)
	}
	if rs.Evictions != 0 {
		t.Fatalf("caches.response.evictions = %d, want 0", rs.Evictions)
	}
	if rs.Size != 1 {
		t.Fatalf("caches.response.size = %d, want 1", rs.Size)
	}
	if len(stats.ReplicaQueries) != 2 {
		t.Fatalf("replica_queries = %v, want 2 replicas behind the cache", stats.ReplicaQueries)
	}
}
