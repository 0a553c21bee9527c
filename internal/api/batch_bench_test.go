package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/wire"
)

// BenchmarkHandleBatch_256x784 serves one batch-784 request — 256 rows of
// 784 floats as a binary frame, binary answer — straight through the
// server's handler, so B/op and allocs/op are what handleBatch and the
// d = 784 forward behind it allocate per request, with no client or
// transport in the count.
func BenchmarkHandleBatch_256x784(b *testing.B) {
	srv := NewServer(wideModel(), "bench")
	frame := frameOf(b, streamRows(1, 256, 784))
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for range b.N {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(frame))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
