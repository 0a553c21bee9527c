package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
)

// remoteBackendFor serves model over loopback HTTP and dials it back as a
// remote shard backend, returning the test server for lifecycle control.
func remoteBackendFor(t *testing.T, model plm.Model, name string) (Backend, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(NewServer(model, name))
	client, err := Dial(ts.URL, nil, 0)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return NewRemoteBackend(client), ts
}

func TestBackendAdaptersAgree(t *testing.T) {
	// The router must not be able to tell a local replica from a remote
	// plmserve: both adapters answer bit-identically to the bare model.
	model := testModel(300)
	local := NewLocalBackend(model, "local")
	remote, ts := remoteBackendFor(t, testModel(300), "remote")
	defer ts.Close()

	if ls, rs := local.Stats(), remote.Stats(); ls.Kind != "local" || rs.Kind != "remote" ||
		ls.Dim != rs.Dim || ls.Classes != rs.Classes {
		t.Fatalf("adapter stats disagree: %+v vs %+v", ls, rs)
	}
	ctx := context.Background()
	x := mat.Vec{0.3, -0.2, 0.7, 0.1}
	lp, err := local.PredictBatch(ctx, []mat.Vec{x})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := remote.PredictBatch(ctx, []mat.Vec{x})
	if err != nil {
		t.Fatal(err)
	}
	if !lp[0].EqualApprox(rp[0], 0) {
		t.Fatalf("local %v != remote %v", lp, rp)
	}
	if !local.Healthy(ctx) || !remote.Healthy(ctx) {
		t.Fatal("live backends report unhealthy")
	}
	ts.Close()
	if remote.Healthy(ctx) {
		t.Fatal("dead remote reports healthy")
	}
}

func TestHeterogeneousShardBitIdenticalAndSurvivesRemoteDeath(t *testing.T) {
	// The PR's acceptance gate: a shard routing over 2 local + 2 remote
	// backends answers bit-identically to a single local model, and keeps
	// doing so after one remote is killed mid-run — the dead backend is
	// quarantined, its chunks re-dispatched, order preserved.
	single := testModel(301)
	backends := []Backend{
		NewLocalBackend(testModel(301), "local-0"),
		NewLocalBackend(testModel(301), "local-1"),
	}
	r0, ts0 := remoteBackendFor(t, testModel(301), "remote-0")
	defer ts0.Close()
	r1, ts1 := remoteBackendFor(t, testModel(301), "remote-1")
	defer ts1.Close()
	backends = append(backends, r0, r1)

	// A long quarantine keeps the dead remote visibly sidelined for the
	// whole test; the recovery path has its own fake-clock test.
	s, err := NewShardBackends(backends, ShardConfig{QuarantineBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	xs := shardProbes(64)
	want := make([]mat.Vec, len(xs))
	for i, x := range xs {
		want[i] = single.Predict(x)
	}
	check := func(round string) {
		t.Helper()
		got, err := s.PredictBatch(xs)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		for i := range xs {
			if !got[i].EqualApprox(want[i], 0) {
				t.Fatalf("%s item %d: %v != %v", round, i, got[i], want[i])
			}
		}
	}
	check("all backends alive")
	for _, st := range s.BackendStatus() {
		if st.Queries == 0 {
			t.Fatalf("backend %s (%s) served nothing while alive", st.Name, st.Kind)
		}
	}
	// Kill one remote mid-run; the batch must still come back complete.
	ts1.Close()
	check("one remote killed")
	check("one remote killed, second batch")
	var deadSeen bool
	for _, st := range s.BackendStatus() {
		if st.Kind == "remote" && st.State == "unreachable" {
			deadSeen = true
			if st.Failures == 0 {
				t.Fatalf("dead remote has no recorded failures: %+v", st)
			}
		}
	}
	if !deadSeen {
		t.Fatalf("no remote marked unreachable after kill: %+v", s.BackendStatus())
	}
}

func TestStatsReportsRemoteAndUnreachableBackends(t *testing.T) {
	// The /stats reach-through must degrade gracefully on heterogeneous
	// shards: remote backends appear with kind "remote", a dead one stays
	// listed with state "unreachable" instead of panicking the handler or
	// silently vanishing from the report — behind the response cache too.
	remote, tsInner := remoteBackendFor(t, testModel(302), "remote")
	defer tsInner.Close()
	s, err := NewShardBackends([]Backend{
		NewLocalBackend(testModel(302), "local"),
		remote,
	}, ShardConfig{QuarantineBase: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewResponseCache(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cached, "hetero")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictBatch(shardProbes(16)); err != nil {
		t.Fatal(err)
	}
	tsInner.Close() // the remote goes dark
	if _, err := c.PredictBatch(shardProbes(32)); err != nil {
		t.Fatal(err) // failover keeps the shard serving
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats returned %s", resp.Status)
	}
	var stats struct {
		ReplicaQueries []int64         `json:"replica_queries"`
		Backends       []BackendStatus `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Backends) != 2 || len(stats.ReplicaQueries) != 2 {
		t.Fatalf("breakdown lost backends: %+v", stats)
	}
	if stats.Backends[0].Kind != "local" || stats.Backends[1].Kind != "remote" {
		t.Fatalf("kinds = %q/%q, want local/remote", stats.Backends[0].Kind, stats.Backends[1].Kind)
	}
	if stats.Backends[1].State != "unreachable" {
		t.Fatalf("dead remote state %q, want unreachable", stats.Backends[1].State)
	}
	if stats.Backends[0].State != "ok" {
		t.Fatalf("live local state %q, want ok", stats.Backends[0].State)
	}
}

func TestPredictAnswersErrorWhenAllBackendsDead(t *testing.T) {
	// A total backend outage must answer 5xx, not a fabricated uniform
	// distribution served as a genuine 200 — an unbatched interpreter
	// would otherwise silently build its linear system from garbage.
	// The same must hold behind the response cache (and the failure must
	// not be memoized).
	dead := &scriptedBackend{Backend: NewLocalBackend(testModel(303), "dead")}
	dead.down.Store(true)
	s, err := NewShardBackends([]Backend{dead}, ShardConfig{QuarantineBase: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictErr(mat.Vec{1, 0, 0, 0}); err == nil {
		t.Fatal("all backends dead, PredictErr succeeded")
	}
	cached, err := NewResponseCache(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cached, "dead")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		bytes.NewReader([]byte(`{"x":[1,0,0,0]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("dead shard answered %s, want 500", resp.Status)
	}
	if srv.Queries() != 0 || srv.Requests() != 0 {
		t.Fatalf("failed predict counted: %d queries / %d trips", srv.Queries(), srv.Requests())
	}

	// The backend comes back: the next predict succeeds end to end (the
	// failure was not cached) and is bit-identical to the model.
	dead.down.Store(false)
	resp2, err := http.Post(ts.URL+"/predict", "application/json",
		bytes.NewReader([]byte(`{"x":[1,0,0,0]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recovered shard answered %s", resp2.Status)
	}
	var out struct {
		Probs []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if want := testModel(303).Predict(mat.Vec{1, 0, 0, 0}); !mat.Vec(out.Probs).EqualApprox(want, 0) {
		t.Fatalf("recovered predict %v != model %v", out.Probs, want)
	}
}
