package core

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/plm"
)

func TestPoolInterpretsAllInstances(t *testing.T) {
	model := plnnModel(80, 5, 8, 3)
	pool := NewPool(Config{Seed: 81}, 4)
	if pool.Size() != 4 {
		t.Fatalf("Size = %d", pool.Size())
	}
	rng := rand.New(rand.NewSource(82))
	xs := make([]mat.Vec, 12)
	for i := range xs {
		xs[i] = randVec(rng, 5)
	}
	results := pool.InterpretMany(model, xs)
	if len(results) != len(xs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("instance %d failed: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		truth, err := model.LocalAt(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		c := r.Interp.Class
		if dist := r.Interp.Features.L1Dist(truth.DecisionFeatures(c)); dist > 1e-4 {
			t.Fatalf("instance %d: L1Dist %v", i, dist)
		}
	}
}

func TestPoolSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(Config{}, 0)
}

func TestPoolConcurrentModelAccessIsCounted(t *testing.T) {
	// The counter is concurrency-safe; totals must match the sum of the
	// reported per-instance query counts.
	model := plnnModel(83, 4, 6, 2)
	counter := api.NewCounter(model)
	pool := NewPool(Config{Seed: 84}, 3)
	rng := rand.New(rand.NewSource(85))
	xs := make([]mat.Vec, 9)
	for i := range xs {
		xs[i] = randVec(rng, 4)
	}
	results := pool.InterpretMany(counter, xs)
	var want int64
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		// Queries includes the anchor probe, which InterpretMany issued in
		// its batched argmax pre-query — so the reported sums match the
		// counter exactly, with no separate per-instance Predict.
		want += int64(r.Interp.Queries)
	}
	if counter.Count() != want {
		t.Fatalf("counter %d != sum of reported queries %d", counter.Count(), want)
	}
}

// interpEqual reports whether two interpretations are bit-identical in
// every recovered quantity and every piece of bookkeeping.
func interpEqual(a, b *plm.Interpretation) bool {
	return reflect.DeepEqual(a, b)
}

func TestPoolDeterministicAcrossRuns(t *testing.T) {
	// Static striping pins every instance to one worker's RNG stream, so
	// two pools with the same seed and size must agree bit for bit however
	// the goroutines were scheduled.
	model := plnnModel(90, 6, 8, 3)
	rng := rand.New(rand.NewSource(91))
	xs := make([]mat.Vec, 11)
	for i := range xs {
		xs[i] = randVec(rng, 6)
	}
	first := NewPool(Config{Seed: 92}, 4).InterpretMany(model, xs)
	second := NewPool(Config{Seed: 92}, 4).InterpretMany(model, xs)
	for i := range first {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("instance %d failed: %v / %v", i, first[i].Err, second[i].Err)
		}
		if !interpEqual(first[i].Interp, second[i].Interp) {
			t.Fatalf("instance %d differs across identically seeded runs", i)
		}
	}
}

func TestPoolFailsFastOnDeadAPI(t *testing.T) {
	// Regression: a dead remote degrades the argmax pre-query to uniform
	// distributions, so every job used to "converge" happily on garbage
	// anchors — class 0 of a constant model — with a clean Result.Err. The
	// pool must notice the client's sticky error right after the pre-query
	// and fail every instance instead.
	model := plnnModel(96, 4, 6, 3)
	ts := httptest.NewServer(api.NewServer(model, "doomed"))
	client, err := api.Dial(ts.URL, &http.Client{Timeout: 300 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close() // the API dies before the bulk job starts
	rng := rand.New(rand.NewSource(97))
	xs := make([]mat.Vec, 6)
	for i := range xs {
		xs[i] = randVec(rng, 4)
	}
	results := NewPool(Config{Seed: 98}, 2).InterpretMany(client, xs)
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("instance %d \"succeeded\" against a dead API", i)
		}
		if r.Interp != nil {
			t.Fatalf("instance %d carries an interpretation from garbage anchors", i)
		}
	}
}

// staleErrModel works perfectly but carries a sticky error from an earlier
// run — the reused-client case.
type staleErrModel struct {
	plm.Model
	err error
}

func (m staleErrModel) Err() error { return m.err }

func TestPoolStaleStickyErrorFailsLoudly(t *testing.T) {
	// A pre-existing sticky error is ambiguous (a fresh failure would hide
	// behind it), so the pool must refuse loudly and point at ResetErr
	// rather than either trusting the wire or mislabeling the old error as
	// a pre-query failure.
	model := plnnModel(99, 4, 6, 3)
	rng := rand.New(rand.NewSource(100))
	xs := []mat.Vec{randVec(rng, 4), randVec(rng, 4)}
	stale := staleErrModel{Model: model, err: errors.New("old transient")}
	for i, r := range NewPool(Config{Seed: 101}, 2).InterpretMany(stale, xs) {
		if r.Err == nil {
			t.Fatalf("instance %d ignored the stale sticky error", i)
		}
		if !strings.Contains(r.Err.Error(), "ResetErr") {
			t.Fatalf("instance %d error does not point at ResetErr: %v", i, r.Err)
		}
	}
}

func TestPoolEmptyInput(t *testing.T) {
	model := plnnModel(86, 3, 4, 2)
	pool := NewPool(Config{Seed: 87}, 2)
	if got := pool.InterpretMany(model, nil); len(got) != 0 {
		t.Fatalf("got %d results for empty input", len(got))
	}
}
