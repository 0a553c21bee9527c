package api

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
)

func shardOf(t *testing.T, n int, seed int64) *Shard {
	t.Helper()
	replicas := make([]plm.Model, n)
	for i := range replicas {
		// Same seed: interchangeable copies, each its own value.
		replicas[i] = testModel(seed)
	}
	s, err := NewShard(replicas)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardBitIdenticalAcrossReplicaCounts(t *testing.T) {
	// The split must be invisible: sharded batch predictions are
	// bit-identical to the single model's, whatever the replica count.
	single := testModel(200)
	xs := make([]mat.Vec, 13) // deliberately not divisible by 2 or 4
	for i := range xs {
		xs[i] = mat.Vec{float64(i) / 13, 0.5, -float64(i) / 7, 0.25}
	}
	want := make([]mat.Vec, len(xs))
	for i, x := range xs {
		want[i] = single.Predict(x)
	}
	for _, n := range []int{1, 2, 4} {
		s := shardOf(t, n, 200)
		got, err := s.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if !got[i].EqualApprox(want[i], 0) {
				t.Fatalf("replicas=%d item %d: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestShardOrderPreservedUnderConcurrentBatches(t *testing.T) {
	// Many goroutines fire interleaved batches; each must get its own
	// answers in its own submission order. Run with -race.
	s := shardOf(t, 4, 201)
	single := testModel(201)
	const callers, perCaller = 12, 11
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs := make([]mat.Vec, perCaller)
			for i := range xs {
				xs[i] = mat.Vec{float64(g) / callers, float64(i) / perCaller, 0.1, -0.1}
			}
			out, err := s.PredictBatch(xs)
			if err != nil {
				errs <- err
				return
			}
			for i, x := range xs {
				if want := single.Predict(x); !out[i].EqualApprox(want, 0) {
					errs <- fmt.Errorf("caller %d item %d: got %v want %v", g, i, out[i], want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	queries := s.ReplicaQueries()
	var sum int64
	for _, q := range queries {
		sum += q
	}
	if sum != callers*perCaller {
		t.Fatalf("replica queries sum to %d, want %d (%v)", sum, callers*perCaller, queries)
	}
}

func TestShardSpreadsBatchAcrossReplicas(t *testing.T) {
	s := shardOf(t, 4, 202)
	xs := make([]mat.Vec, 16)
	for i := range xs {
		xs[i] = mat.Vec{float64(i), 0, 0, 0}
	}
	if _, err := s.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	for r, q := range s.ReplicaQueries() {
		if q != 4 {
			t.Fatalf("replica %d served %d of a 16-item batch over 4 replicas, want 4", r, q)
		}
	}
}

func TestShardRoundRobinsSinglePredictions(t *testing.T) {
	s := shardOf(t, 3, 203)
	x := mat.Vec{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 9; i++ {
		s.Predict(x)
	}
	for r, q := range s.ReplicaQueries() {
		if q != 3 {
			t.Fatalf("replica %d served %d singles, want 3", r, q)
		}
	}
}

// failingModel errors on the batch endpoint — a dead remote replica.
type failingModel struct{ plm.Model }

func (f failingModel) PredictBatch([]mat.Vec) ([]mat.Vec, error) {
	return nil, errors.New("replica down")
}

// scriptedBackend wraps a backend with switchable failure: while down, every
// call errors and Healthy reports false — an unreachable remote, scripted.
type scriptedBackend struct {
	Backend
	down atomic.Bool
}

func (b *scriptedBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if b.down.Load() {
		return nil, errors.New("backend down")
	}
	return b.Backend.PredictBatch(ctx, xs)
}

func (b *scriptedBackend) Healthy(context.Context) bool { return !b.down.Load() }

func shardProbes(n int) []mat.Vec {
	xs := make([]mat.Vec, n)
	for i := range xs {
		xs[i] = mat.Vec{float64(i) / float64(n), 0.5, -float64(i) / 7, 0.25}
	}
	return xs
}

func TestShardFailsOverDeadBackendPreservingOrder(t *testing.T) {
	// A dead backend no longer fails the batch: its chunk is re-dispatched
	// to the survivors and the merged answer stays bit-identical to a
	// single healthy backend, in submission order. The dead backend comes
	// first, so a fresh shard seeds it with the first chunk — for a
	// one-row batch, the only one.
	single := testModel(204)
	for _, n := range []int{16, 1} {
		dead := &scriptedBackend{Backend: NewLocalBackend(testModel(204), "dead")}
		dead.down.Store(true)
		s, err := NewShardBackends([]Backend{
			dead,
			NewLocalBackend(testModel(204), "good"),
		}, ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		xs := shardProbes(n)
		got, err := s.PredictBatch(xs)
		if err != nil {
			t.Fatalf("n=%d: one dead backend failed the batch: %v", n, err)
		}
		for i, x := range xs {
			if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
				t.Fatalf("n=%d item %d: %v != %v", n, i, got[i], want)
			}
		}
		status := s.BackendStatus()
		if status[1].Queries != int64(n) || status[0].Queries != 0 {
			t.Fatalf("n=%d: queries good/dead = %d/%d, want %d/0", n, status[1].Queries, status[0].Queries, n)
		}
		if status[0].State != "unreachable" {
			t.Fatalf("n=%d: dead backend state %q, want unreachable", n, status[0].State)
		}
		if status[0].Failures == 0 || status[0].Retries == 0 {
			t.Fatalf("n=%d: dead backend failures=%d retries=%d, want both > 0", n, status[0].Failures, status[0].Retries)
		}
	}
}

func TestShardErrorsWhenAllBackendsFail(t *testing.T) {
	// Failover has a floor: with every backend gone the batch must error —
	// a partial or fabricated answer would silently corrupt an
	// interpretation's linear system.
	a := &scriptedBackend{Backend: NewLocalBackend(testModel(204), "a")}
	b := &scriptedBackend{Backend: NewLocalBackend(testModel(204), "b")}
	a.down.Store(true)
	b.down.Store(true)
	s, err := NewShardBackends([]Backend{a, b}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictBatch(shardProbes(16)); err == nil {
		t.Fatal("all backends dead, batch succeeded")
	}
}

func TestShardQuarantineBackoffAndRecovery(t *testing.T) {
	// The health state machine: a failing backend is quarantined and takes
	// no traffic; when its backoff expires, a recovery probe (Healthy)
	// decides whether it rejoins or is re-quarantined with doubled backoff.
	var clock atomic.Int64 // nanos, swapped under test control
	flaky := &scriptedBackend{Backend: NewLocalBackend(testModel(204), "flaky")}
	s, err := NewShardBackends([]Backend{
		NewLocalBackend(testModel(204), "steady"),
		flaky,
	}, ShardConfig{QuarantineBase: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.now = func() time.Time { return time.Unix(0, clock.Load()) }

	xs := shardProbes(16)
	flaky.down.Store(true)
	if _, err := s.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	if got := s.BackendStatus()[1].State; got != "unreachable" {
		t.Fatalf("after failure: state %q, want unreachable", got)
	}

	// Inside the backoff window the quarantined backend takes no traffic,
	// even though it would answer again.
	flaky.down.Store(false)
	before := s.BackendStatus()[1].Queries
	if _, err := s.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	if got := s.BackendStatus()[1].Queries; got != before {
		t.Fatalf("quarantined backend served %d probes inside backoff", got-before)
	}

	// Backoff expired, but the backend is still down: the recovery probe
	// fails and the quarantine doubles instead of lifting.
	flaky.down.Store(true)
	clock.Store(int64(300 * time.Millisecond))
	if _, err := s.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	if got := s.BackendStatus()[1].State; got != "unreachable" {
		t.Fatalf("failed recovery probe lifted quarantine: state %q", got)
	}

	// Doubled backoff expired and the backend is healthy again: it rejoins
	// and serves its share.
	flaky.down.Store(false)
	clock.Store(int64(2 * time.Second))
	if _, err := s.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	st := s.BackendStatus()[1]
	if st.State != "ok" {
		t.Fatalf("recovered backend state %q, want ok", st.State)
	}
	if st.Queries == before {
		t.Fatal("recovered backend served nothing")
	}
}

func TestShardPredictFailsOverSingles(t *testing.T) {
	single := testModel(204)
	dead := &scriptedBackend{Backend: NewLocalBackend(testModel(204), "dead")}
	dead.down.Store(true)
	s, err := NewShardBackends([]Backend{dead, NewLocalBackend(testModel(204), "good")}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vec{0.1, 0.2, 0.3, 0.4}
	if got, want := s.Predict(x), single.Predict(x); !got.EqualApprox(want, 0) {
		t.Fatalf("failover single: %v != %v", got, want)
	}
	// With everything dead, Predict degrades to the uniform distribution —
	// the same contract Client.Predict honours when its remote is gone.
	allDead := &scriptedBackend{Backend: NewLocalBackend(testModel(204), "dead2")}
	allDead.down.Store(true)
	s2, err := NewShardBackends([]Backend{allDead}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := s2.Predict(x)
	for _, v := range p {
		if v != 1.0/3 {
			t.Fatalf("degraded single = %v, want uniform", p)
		}
	}
}

func TestShardFailoverBitIdenticalUnderConcurrentBatches(t *testing.T) {
	// The race + ordering gate, run with -race in CI: concurrent batches
	// against a shard whose backend keeps flapping must each come back in
	// their own submission order, bit-identical to the single model.
	single := testModel(205)
	flaky := &scriptedBackend{Backend: NewLocalBackend(testModel(205), "flaky")}
	s, err := NewShardBackends([]Backend{
		NewLocalBackend(testModel(205), "a"),
		NewLocalBackend(testModel(205), "b"),
		flaky,
	}, ShardConfig{QuarantineBase: time.Nanosecond}) // immediate retry: maximum churn
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	go func() {
		for !stop.Load() {
			flaky.down.Store(!flaky.down.Load())
			time.Sleep(50 * time.Microsecond)
		}
	}()
	defer stop.Store(true)

	const callers, perCaller = 8, 23
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs := make([]mat.Vec, perCaller)
			for i := range xs {
				xs[i] = mat.Vec{float64(g) / callers, float64(i) / perCaller, 0.1, -0.1}
			}
			for round := 0; round < 6; round++ {
				out, err := s.PredictBatch(xs)
				if err != nil {
					errs <- err
					return
				}
				for i, x := range xs {
					if want := single.Predict(x); !out[i].EqualApprox(want, 0) {
						errs <- fmt.Errorf("caller %d round %d item %d: got %v want %v", g, round, i, out[i], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFailedBatchIsNotARoundTrip(t *testing.T) {
	// A batch the model could not answer delivered nothing: counting it
	// would skew the queries/round_trips ratio, and the client's 5xx retry
	// loop would multiply the skew.
	srv := NewServer(failingModel{testModel(208)}, "broken")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictBatch([]mat.Vec{{1, 0, 0, 0}, {0, 1, 0, 0}}); err == nil {
		t.Fatal("failing model answered the batch")
	}
	if srv.Requests() != 0 || srv.Queries() != 0 {
		t.Fatalf("failed batch counted: %d trips / %d queries", srv.Requests(), srv.Queries())
	}
}

func TestShardRejectsBadReplicaSets(t *testing.T) {
	if _, err := NewShard(nil); err == nil {
		t.Fatal("empty replica set accepted")
	}
	mismatched := []plm.Model{testModel(205), plainModel{&echoBatcher{}}}
	if _, err := NewShard(mismatched); err == nil {
		t.Fatal("dim/class mismatch accepted")
	}
}

func TestShardEmptyBatch(t *testing.T) {
	s := shardOf(t, 2, 206)
	out, err := s.PredictBatch(nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

func TestShardedServerReportsPerReplicaStats(t *testing.T) {
	// The full plmserve -replicas wiring: shard behind Server, /batch fans
	// out, /stats carries the per-replica breakdown.
	s := shardOf(t, 4, 207)
	srv := NewServer(s, "sharded")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]mat.Vec, 8)
	for i := range xs {
		xs[i] = mat.Vec{float64(i) / 8, 0, 0, 0}
	}
	if _, err := c.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	if srv.Queries() != 8 || srv.Requests() != 1 {
		t.Fatalf("server saw %d queries / %d trips, want 8 / 1", srv.Queries(), srv.Requests())
	}
	for r, q := range s.ReplicaQueries() {
		if q != 2 {
			t.Fatalf("replica %d served %d, want 2", r, q)
		}
	}
}

// TestChunkSpansFloorFromRowWidth pins the default chunk floor: a chunk
// carries at least 32 KiB of input, so a d = 64 probe of 67 rows goes out
// as one chunk per backend (one dispatch wave) while the d = 784 workloads
// keep their four chunks. An explicit MinChunk still wins.
func TestChunkSpansFloorFromRowWidth(t *testing.T) {
	cases := []struct {
		name           string
		minChunk       int
		n, d, backends int
		want           []span
	}{
		{"d64 probe", 0, 67, 64, 2, []span{{0, 34}, {34, 67}}},
		{"d64 wide batch", 0, 512, 64, 2, []span{{0, 128}, {128, 256}, {256, 384}, {384, 512}}},
		{"d784 probe", 0, 786, 784, 2, []span{{0, 197}, {197, 394}, {394, 591}, {591, 786}}},
		{"d784 batch", 0, 256, 784, 2, []span{{0, 64}, {64, 128}, {128, 192}, {192, 256}}},
		{"d784 small", 0, 20, 784, 2, []span{{0, 6}, {6, 12}, {12, 18}, {18, 20}}},
		{"wide rows floor 4", 0, 16, 4096, 2, []span{{0, 4}, {4, 8}, {8, 12}, {12, 16}}},
		{"explicit MinChunk", 4, 67, 64, 2, []span{{0, 17}, {17, 34}, {34, 51}, {51, 67}}},
		{"one backend", 0, 67, 64, 1, []span{{0, 64}, {64, 67}}},
	}
	for _, c := range cases {
		s := NewDynamicShard(ShardConfig{MinChunk: c.minChunk})
		got := s.chunkSpans(c.n, c.d, c.backends)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: chunkSpans(%d, d=%d, %d) = %v, want %v", c.name, c.n, c.d, c.backends, got, c.want)
		}
	}
}
