package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/atlas"
	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// TestLoadReplicasServesShardedStats exercises exactly what `plmserve
// -replicas 4` wires together: N loaded copies behind the shard router,
// served over HTTP, with bit-identical predictions to a single replica and
// a per-replica breakdown under /stats.
func TestLoadReplicasServesShardedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.New(rng, 6, 8, 3)
	path := filepath.Join(t.TempDir(), "plnn.json")
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}

	single, err := loadReplicas(path, "plnn", 1, api.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := loadReplicas(path, "plnn", 4, api.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sharded.(*api.Shard); !ok {
		t.Fatalf("replicas=4 returned %T, want *api.Shard", sharded)
	}

	ts := httptest.NewServer(api.NewServer(sharded, "sharded"))
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]mat.Vec, 12)
	for i := range xs {
		xs[i] = make(mat.Vec, 6)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	got, err := client.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
			t.Fatalf("item %d: sharded %v != single-replica %v", i, got[i], want)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries        int64   `json:"queries"`
		ReplicaQueries []int64 `json:"replica_queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.ReplicaQueries) != 4 {
		t.Fatalf("replica_queries = %v, want 4 entries", stats.ReplicaQueries)
	}
	var sum int64
	for r, q := range stats.ReplicaQueries {
		if q == 0 {
			t.Fatalf("replica %d served no probes: %v", r, stats.ReplicaQueries)
		}
		sum += q
	}
	if sum != stats.Queries {
		t.Fatalf("replica queries sum to %d, server counted %d", sum, stats.Queries)
	}
}

func TestLoadReplicasBadInputs(t *testing.T) {
	if _, err := loadReplicas(filepath.Join(t.TempDir(), "missing.json"), "plnn", 2, api.ShardConfig{}); err == nil {
		t.Fatal("missing model file accepted")
	}
	rng := rand.New(rand.NewSource(2))
	path := filepath.Join(t.TempDir(), "plnn.json")
	if err := nn.New(rng, 4, 6, 2).Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReplicas(path, "nope", 1, api.ShardConfig{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestCachedShardedServer exercises what `plmserve -replicas 2 -cache 64`
// wires together: the LRU response cache in front of the shard, repeat
// probes answered without growing the query count, and the cache counters
// visible under /stats alongside the replica breakdown.
func TestCachedShardedServer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.New(rng, 5, 7, 3)
	path := filepath.Join(t.TempDir(), "plnn.json")
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	model, err := loadReplicas(path, "plnn", 2, api.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := api.NewResponseCache(model, 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.NewServer(cached, "cached"))
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make(mat.Vec, 5)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	first := client.Predict(x)
	second := client.Predict(x)
	if err := client.Err(); err != nil {
		t.Fatal(err)
	}
	if !first.EqualApprox(second, 0) {
		t.Fatalf("cached answer %v != first answer %v", second, first)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Caches         map[string]plm.StoreStats `json:"caches"`
		ReplicaQueries []int64                   `json:"replica_queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if rs, ok := stats.Caches["response"]; !ok || rs.Hits != 1 || rs.Misses != 1 {
		t.Fatalf("caches.response = %+v (present %v), want hits/misses 1/1", rs, ok)
	}
	if len(stats.ReplicaQueries) != 2 {
		t.Fatalf("replica_queries = %v, want the shard visible behind the cache", stats.ReplicaQueries)
	}
}

// TestBuildBackendsHeterogeneous exercises what `plmserve -replicas 2
// -backend host:port,host:port` wires together: 2 local replicas + 2
// remote plmserve instances behind one shard, bit-identical answers, a
// per-backend /stats breakdown with both kinds, and failover keeping the
// endpoint serving after a remote dies.
func TestBuildBackendsHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := nn.New(rng, 6, 10, 3)
	path := filepath.Join(t.TempDir(), "plnn.json")
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	single, err := modelio.Load(path, "plnn")
	if err != nil {
		t.Fatal(err)
	}

	// Two inner plmserve stand-ins, each serving the same model file.
	var remotes []*httptest.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		m, err := modelio.Load(path, "plnn")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(api.NewServer(m, "inner"))
		defer ts.Close()
		remotes = append(remotes, ts)
		addrs = append(addrs, ts.URL)
	}

	backends, err := buildBackends(path, "plnn", 2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(backends) != 4 {
		t.Fatalf("built %d backends, want 4", len(backends))
	}
	shard, err := api.NewShardBackends(backends, api.ShardConfig{QuarantineBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.NewServer(shard, "hetero"))
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	xs := make([]mat.Vec, 32)
	for i := range xs {
		xs[i] = make(mat.Vec, 6)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	check := func(round string) {
		t.Helper()
		got, err := client.PredictBatch(xs)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		for i, x := range xs {
			if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
				t.Fatalf("%s item %d: %v != %v", round, i, got[i], want)
			}
		}
	}
	check("all alive")

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Backends []api.BackendStatus `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	kinds := map[string]int{}
	for _, b := range stats.Backends {
		kinds[b.Kind]++
		if b.Queries == 0 {
			t.Fatalf("backend %s (%s) served nothing: %+v", b.Name, b.Kind, stats.Backends)
		}
	}
	if kinds["local"] != 2 || kinds["remote"] != 2 {
		t.Fatalf("kinds = %v, want 2 local + 2 remote", kinds)
	}

	// One remote dies; the endpoint keeps answering bit-identically.
	remotes[1].Close()
	check("one remote dead")
	check("one remote dead, second batch")
}

func TestBuildBackendsRejectsBadAddress(t *testing.T) {
	if _, err := buildBackends("", "plnn", 0, []string{"127.0.0.1:1"}); err == nil {
		t.Fatal("undialable backend accepted")
	}
}

// TestAtlasColdStartServesCensusedRegions is the acceptance gate for
// `plmserve -atlas`: a first process censuses regions into the disk atlas,
// a second cold-started process answers interpretation for the same probes
// bit-identically with zero closed-form compositions — the GEMM chains were
// paid for exactly once, before the restart.
func TestAtlasColdStartServesCensusedRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := nn.New(rng, 6, 10, 3)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "plnn.json")
	if err := net.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	atlasPath := filepath.Join(dir, "regions.plma")

	// build assembles exactly what main() wires for -atlas -jobs: the white
	// box backed by the RAM-fronted disk store, the runner, and the server
	// with the atlas endpoints and /stats section.
	build := func() (*httptest.Server, *atlas.Atlas, openbox.StoreReporter, *jobs.Runner) {
		a, err := atlas.Open(atlasPath)
		if err != nil {
			t.Fatal(err)
		}
		w, err := modelio.Load(modelPath, "plnn")
		if err != nil {
			t.Fatal(err)
		}
		white := openbox.CacheRegionModelOpts(w, openbox.StoreOptions{
			Capacity: atlasFrontEntries,
			Backing:  a,
		})
		reporter := white.(openbox.StoreReporter)
		m, err := modelio.Load(modelPath, "plnn")
		if err != nil {
			t.Fatal(err)
		}
		runner, err := jobs.NewRunner(m, white, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		srv := api.NewServer(m, "atlas-test")
		runner.Mount(srv)
		mountAtlas(srv, a, reporter, runner)
		ts := httptest.NewServer(srv)
		return ts, a, reporter, runner
	}

	// getStats returns the region store's numbers (caches.regions) and the
	// atlas section of /stats.
	getStats := func(url string) (plm.StoreStats, api.AtlasStatus) {
		t.Helper()
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Caches map[string]plm.StoreStats `json:"caches"`
			Atlas  *api.AtlasStatus          `json:"atlas"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		regions, ok := stats.Caches["regions"]
		if !ok {
			t.Fatal("/stats has no caches.regions section")
		}
		if stats.Atlas == nil {
			t.Fatal("/stats has no atlas section")
		}
		return regions, *stats.Atlas
	}

	pollDone := func(url, id string) jobs.View {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(url + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var v jobs.View
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if v.Status == jobs.StatusDone || v.Status == jobs.StatusFailed {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, v.Status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	submit := func(url, body string) jobs.View {
		t.Helper()
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v jobs.View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit answered %s", resp.Status)
		}
		return v
	}

	xs := make([]mat.Vec, 12)
	for i := range xs {
		xs[i] = make(mat.Vec, 6)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	encode := func(op string, n int) string {
		req := map[string]any{"op": op, "xs": xs, "n": n}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// ---- Warm process: census + interpret, everything lands on disk.
	ts1, a1, rep1, _ := build()
	census := pollDone(ts1.URL, submit(ts1.URL, encode("census", 64)).ID)
	if census.Status != jobs.StatusDone || census.Census == nil || census.Census.Probes != 64 {
		t.Fatalf("census ended %s (%s) report=%+v", census.Status, census.Error, census.Census)
	}
	warm := pollDone(ts1.URL, submit(ts1.URL, encode("interpret", 0)).ID)
	if warm.Status != jobs.StatusDone || len(warm.Regions) == 0 {
		t.Fatalf("warm interpret ended %s with %d regions", warm.Status, len(warm.Regions))
	}
	warmStore, warmStats := getStats(ts1.URL)
	if warmStore.Size == 0 || warmStats.Compositions == 0 {
		t.Fatalf("warm stats = %+v / %+v, want regions and compositions > 0", warmStore, warmStats)
	}
	if warmStats.CensusDone != 64 || warmStats.CensusTotal != 64 {
		t.Fatalf("census progress %d/%d, want 64/64", warmStats.CensusDone, warmStats.CensusTotal)
	}
	if rep1.RegionCompositions() == 0 {
		t.Fatal("warm process composed nothing")
	}
	ts1.Close()
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Cold process: same request, zero compositions, identical bits.
	ts2, a2, rep2, _ := build()
	defer ts2.Close()
	defer a2.Close()
	coldStore, _ := getStats(ts2.URL)
	if coldStore.Size != warmStore.Size {
		t.Fatalf("cold atlas recovered %d regions, warm had %d", coldStore.Size, warmStore.Size)
	}
	cold := pollDone(ts2.URL, submit(ts2.URL, encode("interpret", 0)).ID)
	if cold.Status != jobs.StatusDone {
		t.Fatalf("cold interpret ended %s (%s)", cold.Status, cold.Error)
	}
	if got := rep2.RegionCompositions(); got != 0 {
		t.Fatalf("cold process composed %d regions, want 0 — the atlas was supposed to answer", got)
	}
	afterStore, after := getStats(ts2.URL)
	if after.Compositions != 0 || afterStore.Misses != 0 {
		t.Fatalf("cold stats = %+v / %+v, want 0 compositions and 0 cold misses", afterStore, after)
	}
	if len(cold.Regions) != len(warm.Regions) {
		t.Fatalf("cold harvest has %d regions, warm had %d", len(cold.Regions), len(warm.Regions))
	}
	for i := range warm.Regions {
		w, c := warm.Regions[i], cold.Regions[i]
		for r := range w.RelW {
			for j := range w.RelW[r] {
				if math.Float64bits(w.RelW[r][j]) != math.Float64bits(c.RelW[r][j]) {
					t.Fatalf("region %d RelW[%d][%d] differs across restart", i, r, j)
				}
			}
		}
		for j := range w.RelB {
			if math.Float64bits(w.RelB[j]) != math.Float64bits(c.RelB[j]) {
				t.Fatalf("region %d RelB[%d] differs across restart", i, j)
			}
		}
	}

	// The stored closed forms are individually addressable.
	keys := a2.Keys()
	if len(keys) == 0 {
		t.Fatal("cold atlas has no keys")
	}
	resp, err := http.Get(ts2.URL + "/v1/regions/" + keys[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/regions/%s answered %s", keys[0], resp.Status)
	}
}

// TestAtlasSnapshotWarmsJoiningWorker is the snapshot-on-join handshake
// exactly as main() wires it: a router with a populated atlas, a worker
// whose FleetSession pulls /atlas/snapshot on register and ingests it.
func TestAtlasSnapshotWarmsJoiningWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := nn.New(rng, 5, 8, 3)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "plnn.json")
	if err := net.Save(modelPath); err != nil {
		t.Fatal(err)
	}

	// Router side: an atlas populated by a census sweep.
	routerAtlas, err := atlas.Open(filepath.Join(dir, "router.plma"))
	if err != nil {
		t.Fatal(err)
	}
	defer routerAtlas.Close()
	w, err := modelio.Load(modelPath, "plnn")
	if err != nil {
		t.Fatal(err)
	}
	white := openbox.CacheRegionModelOpts(w, openbox.StoreOptions{Capacity: 64, Backing: routerAtlas})
	runner, err := jobs.NewRunner(white, white, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := api.NewDynamicShard(api.ShardConfig{})
	reg := api.NewRegistry(shard, api.RegistryConfig{TTL: time.Second})
	srv := api.NewServer(white, "router")
	reg.Mount(srv)
	runner.Mount(srv)
	mountAtlas(srv, routerAtlas, nil, runner)
	router := httptest.NewServer(srv)
	defer router.Close()

	anchors := []mat.Vec{make(mat.Vec, 5), make(mat.Vec, 5)}
	for _, a := range anchors {
		for j := range a {
			a[j] = rng.NormFloat64()
		}
	}
	id, err := runner.SubmitN(jobs.OpCensus, anchors, 64)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := runner.Get(id)
		if !ok {
			t.Fatal("census job vanished")
		}
		if v.Status == jobs.StatusDone {
			break
		}
		if v.Status == jobs.StatusFailed || time.Now().After(deadline) {
			t.Fatalf("census ended %s (%s)", v.Status, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if routerAtlas.Len() == 0 {
		t.Fatal("router atlas empty after census")
	}

	// Worker side: plmserve -join with its own (empty) atlas.
	workerAtlas, err := atlas.Open(filepath.Join(dir, "worker.plma"))
	if err != nil {
		t.Fatal(err)
	}
	defer workerAtlas.Close()
	wm, err := modelio.Load(modelPath, "plnn")
	if err != nil {
		t.Fatal(err)
	}
	workerSrv := httptest.NewServer(api.NewServer(wm, "worker"))
	defer workerSrv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := &api.FleetSession{Router: router.URL, Advertise: workerSrv.URL}
	sess.OnAtlas = func(ctx context.Context) {
		if _, err := pullAtlasSnapshot(ctx, router.URL, workerAtlas); err != nil {
			t.Errorf("snapshot pull: %v", err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = sess.Run(ctx)
	}()
	deadline = time.Now().Add(5 * time.Second)
	for workerAtlas.Len() != routerAtlas.Len() {
		if time.Now().After(deadline) {
			t.Fatalf("worker atlas has %d regions, router has %d", workerAtlas.Len(), routerAtlas.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	// The pulled regions are bit-identical to the router's.
	for _, key := range routerAtlas.Keys() {
		rl, ok := routerAtlas.Lookup(key)
		if !ok {
			t.Fatalf("router lost %s", key)
		}
		wl, ok := workerAtlas.Lookup(key)
		if !ok {
			t.Fatalf("worker missing %s", key)
		}
		for i := 0; i < rl.W.Rows(); i++ {
			rr, wr := rl.W.RawRow(i), wl.W.RawRow(i)
			for j := range rr {
				if math.Float64bits(rr[j]) != math.Float64bits(wr[j]) {
					t.Fatalf("%s W[%d][%d] differs after snapshot ingest", key, i, j)
				}
			}
		}
		for j := range rl.B {
			if math.Float64bits(rl.B[j]) != math.Float64bits(wl.B[j]) {
				t.Fatalf("%s B[%d] differs after snapshot ingest", key, j)
			}
		}
	}
}
