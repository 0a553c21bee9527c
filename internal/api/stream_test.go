package api

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/wire"
)

// The streamed request frame battery: a binary PredictBatch encodes its
// rows as the transport writes them (wire.FrameBody) instead of staging
// the frame. The bytes on the wire, their framing, retries and the rows'
// lifetime must be exactly as before.

func streamRows(seed int64, rows, cols int) []mat.Vec {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]mat.Vec, rows)
	for i := range xs {
		xs[i] = make(mat.Vec, cols)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	return xs
}

func frameOf(t testing.TB, xs []mat.Vec) []byte {
	t.Helper()
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = x
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, rows, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchRecorder serves /meta and /v1/batch from a real Server, recording
// each batch request's body and framing; failFirst answers the first batch
// with 503 after reading it.
type batchRecorder struct {
	inner     *Server
	failFirst bool

	mu       sync.Mutex
	bodies   [][]byte
	lengths  []int64
	encoding [][]string
}

func (b *batchRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/batch" {
		b.inner.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b.mu.Lock()
	b.bodies = append(b.bodies, body)
	b.lengths = append(b.lengths, r.ContentLength)
	b.encoding = append(b.encoding, r.TransferEncoding)
	first := len(b.bodies) == 1
	b.mu.Unlock()
	if first && b.failFirst {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	b.inner.ServeHTTP(w, r)
}

// TestStreamRetrySendsIdenticalBodies: a server that answers 503 once
// receives the same frame bytes on the retry — each attempt reads a fresh
// body from the first byte — and both equal WriteFrame's encoding.
func TestStreamRetrySendsIdenticalBodies(t *testing.T) {
	rec := &batchRecorder{inner: NewServer(testModel(100), "stream"), failFirst: true}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	xs := streamRows(1, 66, 4)
	if _, err := c.PredictBatch(xs); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	want := frameOf(t, xs)
	if len(rec.bodies) != 2 {
		t.Fatalf("server saw %d batch attempts, want 2", len(rec.bodies))
	}
	for i, got := range rec.bodies {
		if !bytes.Equal(got, want) {
			t.Fatalf("attempt %d: body differs from WriteFrame's (%d bytes, want %d)", i, len(got), len(want))
		}
	}
	if out := c.WireCounts().BytesOut; out != 2*int64(len(want)) {
		t.Fatalf("client counted %d bytes out, want %d", out, 2*len(want))
	}
}

// TestStreamRequestHasContentLength: the streamed frame goes out with its
// exact size in Content-Length, not chunked.
func TestStreamRequestHasContentLength(t *testing.T) {
	rec := &batchRecorder{inner: NewServer(testModel(100), "stream")}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := streamRows(2, 787, 4)
	if _, err := c.PredictBatch(xs); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(frameOf(t, xs))); rec.lengths[0] != want {
		t.Fatalf("Content-Length %d, want %d", rec.lengths[0], want)
	}
	if len(rec.encoding[0]) != 0 {
		t.Fatalf("Transfer-Encoding %v, want none", rec.encoding[0])
	}
}

// TestStreamRaggedBatchSendsNothing: a ragged batch fails before a byte
// reaches the server.
func TestStreamRaggedBatchSendsNothing(t *testing.T) {
	rec := &batchRecorder{inner: NewServer(testModel(100), "stream")}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictBatch([]mat.Vec{{1, 2, 3, 4}, {1, 2}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if len(rec.bodies) != 0 || c.WireCounts().BytesOut != 0 {
		t.Fatalf("ragged batch reached the server: %d requests, %d bytes", len(rec.bodies), c.WireCounts().BytesOut)
	}
}

// TestStreamEarlyReplyReleasesRowsOnReturn: the server answers before it
// reads the body, so the transport is still writing the frame when the
// response arrives. PredictBatch must not return until the transport has
// closed the body: the caller overwrites its rows right away, and under
// the race detector any late read of them is reported.
func TestStreamEarlyReplyReleasesRowsOnReturn(t *testing.T) {
	meta := NewServer(testModel(100), "early")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			meta.ServeHTTP(w, r)
			return
		}
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		// The frame header says how many rows to answer; the payload is
		// drained only after the reply is on the wire.
		var hdr [16]byte
		if _, err := io.ReadFull(r.Body, hdr[:]); err != nil {
			t.Error(err)
			return
		}
		rows := int(hdr[8]) | int(hdr[9])<<8
		probs := make([][]float64, rows)
		for i := range probs {
			probs[i] = []float64{0.25, 0.25, 0.5}
		}
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		_ = wire.WriteFrame(w, probs, false)
		http.NewResponseController(w).Flush()
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer ts.Close()
	c, err := Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		xs := streamRows(int64(round), 787, 784)
		if _, err := c.PredictBatch(xs); err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			for j := range x {
				x[j] = -1
			}
		}
	}
}
