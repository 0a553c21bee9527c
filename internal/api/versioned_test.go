package api

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/wire"
)

func TestV1AliasesMirrorLegacyPaths(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/meta", "/v1/meta", "/stats", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s answered %s", path, resp.Status)
		}
	}
	// Both generations of /meta advertise the same version.
	for _, path := range []string{"/meta", "/v1/meta"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var meta metaResponse
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if meta.APIVersion != APIVersion {
			t.Fatalf("%s advertises api_version %d, want %d", path, meta.APIVersion, APIVersion)
		}
	}
}

func TestClientUpgradesToVersionedPaths(t *testing.T) {
	srv, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Prefix() != "/v1" {
		t.Fatalf("client prefix %q against a versioned server, want /v1", c.Prefix())
	}
	// The upgraded paths actually serve predictions.
	if _, err := c.PredictErr(mat.Vec{0.1, -0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if srv.Queries() != 1 {
		t.Fatalf("server counted %d queries through /v1", srv.Queries())
	}
}

func TestClientStaysUnversionedAgainstOldServer(t *testing.T) {
	// A pre-versioning server's /meta has no api_version; the client must
	// keep every request on the legacy paths — the advertise-then-upgrade
	// dance that already governs codec selection.
	var legacyPredicts atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/meta":
			wire.WriteJSON(w, http.StatusOK, map[string]any{"name": "old", "dim": 4, "classes": 3})
		case "/predict":
			legacyPredicts.Add(1)
			wire.WriteJSON(w, http.StatusOK, map[string]any{"probs": []float64{1, 0, 0}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer old.Close()
	c, err := Dial(old.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Prefix() != "" {
		t.Fatalf("client prefix %q against a pre-versioning server, want empty", c.Prefix())
	}
	if _, err := c.PredictErr(mat.Vec{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if legacyPredicts.Load() != 1 {
		t.Fatalf("legacy /predict served %d requests, want 1", legacyPredicts.Load())
	}
}

func regionFixture(t *testing.T) *plm.Linear {
	t.Helper()
	w := mat.FromRows(
		mat.Vec{1.0 / 3.0, -2.25, 0.1},
		mat.Vec{math.Pi, 1e-300, -0.0},
	)
	lin, err := plm.NewLinear(w, mat.Vec{0.5, -1.0 / 7.0}, "plnn-3-00000000deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	return lin
}

func TestRegionSourceServesStoredClosedForm(t *testing.T) {
	srv, ts := newTestServer(t)
	lin := regionFixture(t)
	srv.SetRegionSource(func(key string) (*plm.Linear, bool) {
		if key == lin.Key {
			return lin, true
		}
		return nil, false
	})

	// JSON shape, at both path generations.
	for _, prefix := range []string{"", "/v1"} {
		resp, err := http.Get(ts.URL + prefix + "/regions/" + lin.Key)
		if err != nil {
			t.Fatal(err)
		}
		var body regionResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/regions answered %s", prefix, resp.Status)
		}
		if body.Key != lin.Key || len(body.W) != 2 || len(body.B) != 2 {
			t.Fatalf("region body = %+v", body)
		}
	}

	// Binary clients get two PLMB frames, bit-identical to the store.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/regions/"+lin.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.AcceptValue(wire.Binary{}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := wire.NewFrameReader(resp.Body, wire.DefaultMaxBody)
	gotW, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotW) != lin.W.Rows() || len(gotB) != 1 {
		t.Fatalf("binary region = %d W rows, %d B rows", len(gotW), len(gotB))
	}
	for i := range gotW {
		for j := range gotW[i] {
			if math.Float64bits(gotW[i][j]) != math.Float64bits(lin.W.RawRow(i)[j]) {
				t.Fatalf("W[%d][%d] not bit-identical over the wire", i, j)
			}
		}
	}
	for j := range gotB[0] {
		if math.Float64bits(gotB[0][j]) != math.Float64bits(lin.B[j]) {
			t.Fatalf("B[%d] not bit-identical over the wire", j)
		}
	}

	// Misses are a 404, not a 500.
	miss, err := http.Get(ts.URL + "/regions/plnn-3-ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, miss.Body)
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown region answered %s, want 404", miss.Status)
	}
}

func TestStatsUnifiedCachesAndAtlasSections(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.AddStoreStats("regions", func() plm.StoreStats {
		return plm.StoreStats{Hits: 3, Misses: 1, Evictions: 0, Size: 2, Bytes: 160}
	})
	srv.SetAtlasStatus(func() AtlasStatus {
		return AtlasStatus{Quarantined: 1, Compositions: 2, CensusDone: 5, CensusTotal: 10, CensusProgress: 0.5}
	})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reg, ok := stats.Caches["regions"]
	if !ok {
		t.Fatalf("caches section missing regions store: %+v", stats.Caches)
	}
	if reg.Hits != 3 || reg.Misses != 1 || reg.Size != 2 || reg.Bytes != 160 {
		t.Fatalf("regions store stats = %+v", reg)
	}
	if stats.Atlas == nil {
		t.Fatal("atlas section absent")
	}
	if stats.Atlas.Quarantined != 1 || stats.Atlas.Compositions != 2 || stats.Atlas.CensusProgress != 0.5 {
		t.Fatalf("atlas section = %+v", stats.Atlas)
	}

	// A response cache in front of the model reports under "response" in the
	// same shape (alongside its legacy cache_* fields).
	cached, err := NewResponseCache(testModel(200), 8)
	if err != nil {
		t.Fatal(err)
	}
	csrv := NewServer(cached, "cached")
	cts := httptest.NewServer(csrv)
	defer cts.Close()
	cresp, err := http.Get(cts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var cstats statsResponse
	if err := json.NewDecoder(cresp.Body).Decode(&cstats); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if _, ok := cstats.Caches["response"]; !ok {
		t.Fatalf("response cache missing from caches section: %+v", cstats.Caches)
	}
}

func TestFleetSessionAtlasHandshake(t *testing.T) {
	// A router that keeps an atlas advertises it in the register ack, and
	// the joining worker's OnAtlas hook fires; a plain router must not
	// trigger the pull.
	worker := httptest.NewServer(NewServer(testModel(505), "worker"))
	defer worker.Close()

	runSession := func(withAtlas bool) int64 {
		s := NewDynamicShard(ShardConfig{})
		reg := NewRegistry(s, RegistryConfig{TTL: time.Second})
		srv := NewServer(s, "router")
		reg.Mount(srv)
		if withAtlas {
			srv.SetAtlasStatus(func() AtlasStatus { return AtlasStatus{} })
		}
		router := httptest.NewServer(srv)
		defer router.Close()

		var pulls atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sess := &FleetSession{
			Router:    router.URL,
			Advertise: worker.URL,
			OnAtlas:   func(context.Context) { pulls.Add(1) },
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = sess.Run(ctx)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for reg.Status().Joins < 1 {
			if time.Now().After(deadline) {
				t.Fatal("session never registered")
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		<-done
		return pulls.Load()
	}

	if got := runSession(true); got < 1 {
		t.Fatalf("OnAtlas fired %d times against an atlas router, want >= 1", got)
	}
	if got := runSession(false); got != 0 {
		t.Fatalf("OnAtlas fired %d times against a plain router, want 0", got)
	}
}
