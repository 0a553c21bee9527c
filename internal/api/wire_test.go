package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/wire"
)

// The codec interop battery: every pairing of old (JSON-only) and new
// (binary-capable) peer must interoperate, the binary path must be
// bit-identical to JSON, and malformed or oversized bodies must answer
// clean 4xx statuses whatever codec they claimed to be.

func wireProbes() []mat.Vec {
	return []mat.Vec{
		{0.1, -0.2, 0.3, 0.4},
		{1, 1, 1, 1},
		{-2.5, 0, 1.0 / 3.0, math.Pi},
	}
}

func TestClientNegotiatesBinaryAutomatically(t *testing.T) {
	srv, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodecName() != wire.NameBinary {
		t.Fatalf("dialed codec = %s, want binary against an advertising server", c.CodecName())
	}
	local := testModel(100)
	xs := wireProbes()
	got, err := c.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := local.Predict(x)
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("batch item %d class %d: binary path not bit-identical", i, j)
			}
		}
	}
	// Both sides metered the exchange as binary.
	if sc := srv.WireCounts(); sc.BinaryRequests == 0 || sc.BytesIn == 0 || sc.BytesOut == 0 {
		t.Fatalf("server wire counts = %+v", sc)
	}
	if cc := c.WireCounts(); cc.BinaryRequests == 0 || cc.BytesIn == 0 || cc.BytesOut == 0 {
		t.Fatalf("client wire counts = %+v", cc)
	}
}

func TestOldJSONClientAgainstNewServer(t *testing.T) {
	// An old peer knows nothing of codecs: bare POSTs with JSON bodies and
	// no Accept header must behave exactly as before the codec layer.
	_, ts := newTestServer(t)
	local := testModel(100)
	x := mat.Vec{0.1, -0.2, 0.3, 0.4}
	body, _ := json.Marshal(map[string]any{"x": x})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("old client answered with Content-Type %q", ct)
	}
	var out struct {
		Probs []float64 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := local.Predict(x)
	for j := range want {
		if math.Float64bits(out.Probs[j]) != math.Float64bits(want[j]) {
			t.Fatalf("class %d: JSON path not bit-identical", j)
		}
	}
}

// legacyServer is a test double of the pre-codec server: /meta without a
// codecs list, JSON-only bodies, Accept ignored. It is what a new client
// must keep working against.
func legacyServer(t *testing.T, model plm.Model) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /meta", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"name": "legacy", "dim": model.Dim(), "classes": model.Classes(),
		})
	})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			X []float64 `json:"x"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"probs": model.Predict(mat.Vec(in.X))})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Xs [][]float64 `json:"xs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([][]float64, len(in.Xs))
		for i, x := range in.Xs {
			out[i] = model.Predict(mat.Vec(x))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"probs": out})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestNewClientAgainstLegacyJSONServer(t *testing.T) {
	local := testModel(100)
	ts := legacyServer(t, local)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodecName() != wire.NameJSON {
		t.Fatalf("codec against a non-advertising server = %s, want json", c.CodecName())
	}
	if err := c.SetCodec(wire.NameBinary); err == nil {
		t.Fatal("binary codec forced onto a server that cannot parse it")
	}
	xs := wireProbes()
	got, err := c.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := local.Predict(x)
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("batch item %d class %d differs against legacy server", i, j)
			}
		}
	}
	if cc := c.WireCounts(); cc.JSONRequests == 0 || cc.BinaryRequests != 0 {
		t.Fatalf("client wire counts = %+v, want json-only traffic", cc)
	}
}

func TestBatchProbsBitIdenticalAcrossCodecs(t *testing.T) {
	// Served twice: by a PLNN worker, and by a router over two PLNN workers,
	// which forwards a /predict to them as a one-row /v1/batch. Either way
	// a single prediction is its row of the batch, bit for bit.
	_, worker := newTestServer(t)
	var backends []Backend
	for _, name := range []string{"w0", "w1"} {
		b, ts := remoteBackendFor(t, testModel(100), name)
		t.Cleanup(ts.Close)
		backends = append(backends, b)
	}
	shard, err := NewShardBackends(backends, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewServer(shard, "router"))
	t.Cleanup(router.Close)
	bits := func(v mat.Vec) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for _, ts := range []*httptest.Server{worker, router} {
		c, err := Dial(ts.URL, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		xs := wireProbes()
		viaBinary, err := c.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetCodec(wire.NameJSON); err != nil {
			t.Fatal(err)
		}
		viaJSON, err := c.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			for j := range viaBinary[i] {
				if math.Float64bits(viaBinary[i][j]) != math.Float64bits(viaJSON[i][j]) {
					t.Fatalf("%s item %d class %d: binary %x != json %x", ts.URL, i, j,
						math.Float64bits(viaBinary[i][j]), math.Float64bits(viaJSON[i][j]))
				}
			}
		}
		// Back to binary for good measure — the server still advertises it.
		if err := c.SetCodec(wire.NameBinary); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			p, err := c.PredictErr(x)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bits(p), bits(viaBinary[i])) {
				t.Fatalf("%s: /predict of item %d = %v, its /batch row %v", ts.URL, i, p, viaBinary[i])
			}
		}
	}
}

func TestMalformedBinaryRequestsAnswer400(t *testing.T) {
	_, ts := newTestServer(t)
	valid := func() []byte {
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, [][]float64{{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty body":        {},
		"garbage":           []byte("this is not a frame at all"),
		"bad magic":         append([]byte("NOPE"), valid[4:]...),
		"bad version":       append([]byte("PLMB\x09"), valid[5:]...),
		"truncated header":  valid[:10],
		"truncated payload": valid[:len(valid)-8],
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/predict", wire.ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s answered %s, want 400", name, resp.Status)
		}
	}
	// A frame whose header lies about a gigantic payload is a size refusal,
	// not a syntax error.
	huge := append([]byte{}, valid[:16]...)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0xff // rows
	resp, err := http.Post(ts.URL+"/batch", wire.ContentTypeBinary, bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("hostile dims answered %s, want 413", resp.Status)
	}
}

// TestZeroColRowFloodAnswers413: a 16-byte binary request declaring
// 4,194,304 zero-col rows would decode to ~100 MB of row headers; frame
// admission charges each row its header, so the default 64 MiB cap
// refuses it with 413 instead of allocating.
func TestZeroColRowFloodAnswers413(t *testing.T) {
	_, ts := newTestServer(t)
	hdr := make([]byte, 16)
	copy(hdr, "PLMB")
	hdr[4] = wire.FrameVersion
	binary.LittleEndian.PutUint32(hdr[8:], 1<<22) // rows; cols stays 0
	resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinary, bytes.NewReader(hdr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("zero-col row flood answered %s, want 413", resp.Status)
	}
}

func TestOversizedBodyAnswers413(t *testing.T) {
	// Regression: a body stopped by the size cap used to answer 400 — the
	// client would conclude its request was malformed and never retry with
	// a smaller batch. Both codecs must map the cap to 413.
	srv := NewServer(testModel(100), "small")
	srv.MaxBody = 256
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	bigRows := make([][]float64, 64)
	for i := range bigRows {
		bigRows[i] = []float64{1, 2, 3, 4}
	}
	var jsonBody, binBody bytes.Buffer
	if err := (wire.JSON{}).EncodeMat(&jsonBody, "xs", bigRows); err != nil {
		t.Fatal(err)
	}
	if err := (wire.Binary{}).EncodeMat(&binBody, "xs", bigRows); err != nil {
		t.Fatal(err)
	}
	for name, post := range map[string]struct {
		ct   string
		body *bytes.Buffer
	}{
		"json":   {wire.ContentTypeJSON, &jsonBody},
		"binary": {wire.ContentTypeBinary, &binBody},
	} {
		resp, err := http.Post(ts.URL+"/batch", post.ct, bytes.NewReader(post.body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body answered %s, want 413", name, resp.Status)
		}
	}
	// A body that fits still works.
	small, _ := json.Marshal(map[string]any{"xs": [][]float64{{1, 2, 3, 4}}})
	resp, err := http.Post(ts.URL+"/batch", wire.ContentTypeJSON, bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget body answered %s", resp.Status)
	}
}

func TestStatsExposeWireCounters(t *testing.T) {
	_, ts := newTestServer(t)
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vec{0.1, -0.2, 0.3, 0.4}
	if _, err := c.PredictErr(x); err != nil { // binary
		t.Fatal(err)
	}
	if err := c.SetCodec(wire.NameJSON); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictErr(x); err != nil { // json
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries        int64 `json:"queries"`
		BytesIn        int64 `json:"bytes_in"`
		BytesOut       int64 `json:"bytes_out"`
		BinaryRequests int64 `json:"binary_requests"`
		JSONRequests   int64 `json:"json_requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 2 || stats.BinaryRequests != 1 || stats.JSONRequests != 1 {
		t.Fatalf("stats = %+v, want 2 queries split 1 binary / 1 json", stats)
	}
	if stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Fatalf("stats = %+v, want nonzero wire bytes", stats)
	}
}

func TestShardStatsReachThroughRemoteWireCounters(t *testing.T) {
	// A shard fronting a remote backend reports that backend's client-side
	// wire counters in /stats, next to its health and retry counters —
	// same reach-through pattern the cache counters use.
	inner := httptest.NewServer(NewServer(testModel(100), "inner"))
	t.Cleanup(inner.Close)
	client, err := Dial(inner.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardBackends([]Backend{
		NewRemoteBackend(client),
		NewLocalBackend(testModel(100), "local-0"),
	}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	outer := httptest.NewServer(NewServer(s, "outer"))
	t.Cleanup(outer.Close)

	// Enough traffic that the remote backend certainly served some of it.
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = []float64{0.1, 0.2, 0.3, 0.4}
	}
	body, _ := json.Marshal(map[string]any{"xs": xs})
	resp, err := http.Post(outer.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch answered %s", resp.Status)
	}

	sr, err := http.Get(outer.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		Backends []struct {
			Kind string       `json:"kind"`
			Wire *wire.Counts `json:"wire"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Backends) != 2 {
		t.Fatalf("%d backends in stats", len(stats.Backends))
	}
	for _, b := range stats.Backends {
		switch b.Kind {
		case "remote":
			if b.Wire == nil {
				t.Fatal("remote backend has no wire counters")
			}
			// The dialed inner hop negotiated binary automatically.
			if b.Wire.BinaryRequests == 0 || b.Wire.BytesOut == 0 {
				t.Fatalf("remote wire counters = %+v", *b.Wire)
			}
		case "local":
			if b.Wire != nil {
				t.Fatalf("local backend reports wire counters %+v", *b.Wire)
			}
		}
	}
}

// TestBinaryFloat32RequestsGetExactFrames: the float32 payload mode is
// gone. A /v1/batch frame with flags bit 0 set answers 400, and a request
// whose Accept still asks for prec=f32 gets float64 frames whose bits equal
// a plain binary request's answer.
func TestBinaryFloat32RequestsGetExactFrames(t *testing.T) {
	_, ts := newTestServer(t)
	var rows [][]float64
	for _, x := range wireProbes() {
		rows = append(rows, x)
	}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, rows); err != nil {
		t.Fatal(err)
	}
	post := func(body []byte, accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	flagged := bytes.Clone(frame.Bytes())
	flagged[5] = 1
	if resp, body := post(flagged, wire.ContentTypeBinary); resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown frame flags")) {
		t.Fatalf("flags-1 frame answered %s: %s", resp.Status, body)
	}

	decode := func(accept string) [][]float64 {
		t.Helper()
		resp, body := post(frame.Bytes(), accept)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentTypeBinary {
			t.Fatalf("Accept %q answered %s, %q: %s", accept, resp.Status, resp.Header.Get("Content-Type"), body)
		}
		if want := 16 + 8*len(rows)*testModel(100).Classes(); len(body) != want {
			t.Fatalf("Accept %q: %d-byte frame, want %d (float64 payload)", accept, len(body), want)
		}
		m, err := wire.ReadFrame(bytes.NewReader(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := decode(wire.ContentTypeBinary)
	asked := decode(wire.ContentTypeBinary + ";prec=f32")
	for i := range plain {
		for j := range plain[i] {
			if math.Float64bits(asked[i][j]) != math.Float64bits(plain[i][j]) {
				t.Fatalf("row %d class %d: prec=f32 answer %x, plain %x", i, j, math.Float64bits(asked[i][j]), math.Float64bits(plain[i][j]))
			}
		}
	}
}
