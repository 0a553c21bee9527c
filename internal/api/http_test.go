package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(testModel(100), "test-model")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestDialFetchesMeta(t *testing.T) {
	_, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "test-model" || c.Dim() != 4 || c.Classes() != 3 {
		t.Fatalf("meta = %s %d %d", c.Name(), c.Dim(), c.Classes())
	}
}

func TestDialBadURL(t *testing.T) {
	if _, err := Dial("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond}, 0); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

func TestRemotePredictMatchesLocal(t *testing.T) {
	srv, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	local := testModel(100)
	x := mat.Vec{0.1, -0.2, 0.3, 0.4}
	got, err := c.PredictErr(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(local.Predict(x), 1e-12) {
		t.Fatalf("remote %v vs local %v", got, local.Predict(x))
	}
	if srv.Queries() != 1 {
		t.Fatalf("server counted %d queries", srv.Queries())
	}
	// Through the plm.Model interface too.
	if !c.Predict(x).EqualApprox(local.Predict(x), 1e-12) {
		t.Fatal("interface path differs")
	}
	if c.Err() != nil {
		t.Fatalf("unexpected sticky error: %v", c.Err())
	}
}

func TestRemoteBatch(t *testing.T) {
	srv, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := []mat.Vec{{0, 0, 0, 0}, {1, 1, 1, 1}, {0.5, 0, 0.5, 0}}
	got, err := c.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	local := testModel(100)
	for i, x := range xs {
		if !got[i].EqualApprox(local.Predict(x), 1e-12) {
			t.Fatalf("batch item %d differs", i)
		}
	}
	if srv.Queries() != 3 {
		t.Fatalf("batch should count per item, got %d", srv.Queries())
	}
	if srv.Requests() != 1 {
		t.Fatalf("one batch is one round trip, got %d", srv.Requests())
	}
}

func TestServerCountsRoundTrips(t *testing.T) {
	srv, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vec{0, 0, 0, 0}
	c.Predict(x)                                                     // 1 trip, 1 query
	if _, err := c.PredictBatch([]mat.Vec{x, x, x, x}); err != nil { // 1 trip, 4 queries
		t.Fatal(err)
	}
	if srv.Requests() != 2 || srv.Queries() != 5 {
		t.Fatalf("server saw %d trips / %d queries, want 2 / 5", srv.Requests(), srv.Queries())
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictErr(mat.Vec{1, 2}); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := c.PredictBatch([]mat.Vec{{1, 2}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	// Raw malformed JSON.
	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON -> %s", resp.Status)
	}
	// Unknown fields rejected.
	resp, err = http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"x":[0,0,0,0],"extra":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field -> %s", resp.Status)
	}
}

func TestStickyErrorOnServerLoss(t *testing.T) {
	srv := NewServer(testModel(100), "gone")
	ts := httptest.NewServer(srv)
	c, err := Dial(ts.URL, &http.Client{Timeout: 300 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	p := c.Predict(mat.Vec{0, 0, 0, 0})
	if len(p) != 3 {
		t.Fatalf("fallback has %d entries", len(p))
	}
	if c.Err() == nil {
		t.Fatal("sticky error not recorded")
	}
	c.ResetErr()
	if c.Err() != nil {
		t.Fatal("ResetErr failed")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Predict(mat.Vec{0, 0, 0, 0})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats -> %s", resp.Status)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 1 || stats.RoundTrips != 1 {
		t.Fatalf("stats = %+v, want 1 query over 1 round trip", stats)
	}
}

func TestValidateOverHTTP(t *testing.T) {
	// End to end: the handshake validator works through the remote client.
	_, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(c, mat.Vec{0.1, 0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSurvivesConcurrentClients(t *testing.T) {
	// Interpreters hammer the service; predictions are read-only so the
	// server must be race-free under parallel load (run with -race).
	srv, ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := Dial(ts.URL, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				x := mat.Vec{float64(i) / 20, 0.5, float64(seed) / 8, 0}
				if _, err := c.PredictErr(x); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Queries() != 8*20 {
		t.Fatalf("served %d queries, want 160", srv.Queries())
	}
}

func TestRetryStopsOnClientError(t *testing.T) {
	// Regression: a 4xx means the request itself is wrong — re-sending the
	// identical payload N more times wasted round trips and delayed the
	// caller seeing its own mistake. Count the attempts that reach the
	// server: a 400 must arrive exactly once, however many retries the
	// client was built with.
	var attempts atomic.Int64
	inner := NewServer(testModel(100), "strict")
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, "/v1") {
		case "/predict", "/batch":
			attempts.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer counting.Close()
	c, err := Dial(counting.URL, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong input length -> server responds 400.
	if _, err := c.PredictErr(mat.Vec{1, 2}); err == nil {
		t.Fatal("bad request accepted")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("400 response was sent %d times, want 1", got)
	}
	attempts.Store(0)
	if _, err := c.PredictBatch([]mat.Vec{{1, 2}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("batch 400 was sent %d times, want 1", got)
	}
}

func TestRetryStillCoversServerErrors(t *testing.T) {
	// 5xx stays retryable: a persistent 503 is attempted 1 + retries times.
	var attempts atomic.Int64
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/predict" || r.URL.Path == "/v1/predict" {
			attempts.Add(1)
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		NewServer(testModel(100), "down").ServeHTTP(w, r)
	}))
	defer down.Close()
	c, err := Dial(down.URL, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictErr(mat.Vec{0, 0, 0, 0}); err == nil {
		t.Fatal("persistent 503 succeeded")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("503 attempted %d times, want 3 (1 + 2 retries)", got)
	}
}

func TestEmptyBatchIsNotARoundTrip(t *testing.T) {
	// Regression: an empty /batch used to count a round trip with zero
	// queries, skewing the queries/round_trips ratio the integration gate
	// reads off /stats.
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"xs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch -> %s", resp.Status)
	}
	var out struct {
		Probs [][]float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Probs) != 0 {
		t.Fatalf("empty batch answered %d items", len(out.Probs))
	}
	if srv.Requests() != 0 || srv.Queries() != 0 {
		t.Fatalf("empty batch counted: %d trips / %d queries", srv.Requests(), srv.Queries())
	}
	// Client side: an empty batch never reaches the wire at all.
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := c.PredictBatch(nil); err != nil || out != nil {
		t.Fatalf("client empty batch: %v, %v", out, err)
	}
	if srv.Requests() != 0 {
		t.Fatalf("client shipped an empty batch: %d trips", srv.Requests())
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	// A proxy that fails the first attempt of every request path.
	inner := NewServer(testModel(100), "flaky-remote")
	var failNext bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/predict" {
			failNext = !failNext
			if failNext {
				http.Error(w, "transient", http.StatusBadGateway)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	c, err := Dial(proxy.URL, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictErr(mat.Vec{0, 0, 0, 0}); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
}
