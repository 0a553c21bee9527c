package jobs

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/wire"
)

// defaultStreamRows is how many probability rows ride in one streamed
// binary result frame: big enough to amortize the 16-byte header to
// nothing, small enough that neither side ever buffers more than ~one
// frame of a million-instance harvest.
const defaultStreamRows = 1024

// window is the offset/limit result slice a GET /jobs/{id} asked for.
type window struct {
	present bool
	offset  int
	limit   int // -1: to the end
}

// parseWindow reads the offset/limit query parameters. Absent parameters
// mean the legacy full-result fetch.
func parseWindow(req *http.Request) (window, error) {
	q := req.URL.Query()
	w := window{limit: -1}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return w, fmt.Errorf("jobs: bad offset %q", v)
		}
		w.present, w.offset = true, n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return w, fmt.Errorf("jobs: bad limit %q", v)
		}
		w.present, w.limit = true, n
	}
	return w, nil
}

// slice clamps the window against n items and returns [start, end).
func (w window) slice(n int) (int, int) {
	start := min(w.offset, n)
	end := n
	if w.limit >= 0 {
		end = min(start+w.limit, n)
	}
	return start, end
}

// paginate rewrites a full view into the requested page, stamping the
// Total/Offset window fields.
func paginate(v View, w window) View {
	switch v.Op {
	case OpPredict:
		v.Total = len(v.Probs)
		start, end := w.slice(len(v.Probs))
		v.Offset = start
		v.Probs = v.Probs[start:end]
	case OpInterpret:
		v.Total = len(v.Regions)
		start, end := w.slice(len(v.Regions))
		v.Offset = start
		v.Regions = v.Regions[start:end]
	}
	return v
}

// Header names carrying job metadata on binary result streams, whose
// bodies are pure float frames with no envelope to put it in.
const (
	HeaderID     = "X-PLM-Job-Id"
	HeaderOp     = "X-PLM-Job-Op"
	HeaderStatus = "X-PLM-Job-Status"
	HeaderN      = "X-PLM-Job-N"
	HeaderError  = "X-PLM-Job-Error"
	HeaderTotal  = "X-PLM-Job-Total"
	HeaderOffset = "X-PLM-Job-Offset"
)

// streamView answers a binary GET /jobs/{id}: metadata in response
// headers, results as a sequence of float frames — one frame per chunk of
// probability rows, or three frames (probe, relative W, relative b) per
// harvested region — flushed as they are written. The server never
// serializes more than one chunk at a time, and a streaming reader on the
// other side decodes the same way; the stream ends at EOF.
func (r *Runner) streamView(w http.ResponseWriter, ex *wire.Exchange, v View, win window) {
	h := w.Header()
	h.Set(HeaderID, v.ID)
	h.Set(HeaderOp, v.Op)
	h.Set(HeaderStatus, string(v.Status))
	h.Set(HeaderN, strconv.Itoa(v.N))
	if v.Error != "" {
		h.Set(HeaderError, headerSafe(v.Error))
	}
	total := len(v.Probs)
	if v.Op == OpInterpret {
		total = len(v.Regions)
	}
	start, end := win.slice(total)
	h.Set(HeaderTotal, strconv.Itoa(total))
	h.Set(HeaderOffset, strconv.Itoa(start))
	h.Set("Content-Type", wire.ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	if v.Status != StatusDone {
		return // metadata only; nothing to stream yet (or ever, on failure)
	}
	cw := ex.CountWriter(w)
	flusher, _ := w.(http.Flusher)
	chunk := r.StreamRows
	if chunk <= 0 {
		chunk = defaultStreamRows
	}
	switch v.Op {
	case OpPredict:
		for at := start; at < end; at += chunk {
			stop := min(at+chunk, end)
			// Errors past the header are unrecoverable mid-stream; the
			// truncated frame makes the breakage visible to the reader.
			if err := wire.WriteFrame(cw, v.Probs[at:stop]); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	case OpInterpret:
		for _, region := range v.Regions[start:end] {
			if err := wire.WriteFrame(cw, [][]float64{region.Probe}); err != nil {
				return
			}
			if err := wire.WriteFrame(cw, region.RelW); err != nil {
				return
			}
			if err := wire.WriteFrame(cw, [][]float64{region.RelB}); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
