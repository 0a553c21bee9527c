package wire

import (
	"io"
	"mime"
	"net/http"
	"strings"
	"sync/atomic"
)

// Stats is a process-level wire counter set: payload bytes in and out of
// the seam and the per-request codec split. The server exposes its set on
// /stats; the client keeps one per connection so a shard's remote backends
// can be reached through. All methods are nil-safe so unmounted code paths
// (a Runner never attached to a server, say) need no guards.
type Stats struct {
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64
	binaryRequests atomic.Int64
	jsonRequests   atomic.Int64
}

// Counts is an instantaneous snapshot of a Stats, in its wire form — the
// field names are the /stats members the counters appear under.
type Counts struct {
	BytesIn        int64 `json:"bytes_in"`
	BytesOut       int64 `json:"bytes_out"`
	BinaryRequests int64 `json:"binary_requests"`
	JSONRequests   int64 `json:"json_requests"`
}

// Counts snapshots the counters.
func (s *Stats) Counts() Counts {
	if s == nil {
		return Counts{}
	}
	return Counts{
		BytesIn:        s.bytesIn.Load(),
		BytesOut:       s.bytesOut.Load(),
		BinaryRequests: s.binaryRequests.Load(),
		JSONRequests:   s.jsonRequests.Load(),
	}
}

// AddBytesIn counts payload bytes read off the wire.
func (s *Stats) AddBytesIn(n int64) {
	if s != nil && n > 0 {
		s.bytesIn.Add(n)
	}
}

// AddBytesOut counts payload bytes written to the wire.
func (s *Stats) AddBytesOut(n int64) {
	if s != nil && n > 0 {
		s.bytesOut.Add(n)
	}
}

// CountRequest classifies one request as binary or JSON.
func (s *Stats) CountRequest(binaryCodec bool) {
	if s == nil {
		return
	}
	if binaryCodec {
		s.binaryRequests.Add(1)
	} else {
		s.jsonRequests.Add(1)
	}
}

// Exchange is the per-request server-side seam: it negotiates the request
// and response codecs once, counts the request and its payload bytes into
// stats, and answers every encode/decode the handler needs. Handlers never
// touch a codec or an encoder directly — one Exchange per served request
// is the whole wire surface of the process.
type Exchange struct {
	req   *http.Request
	in    Codec
	out   Codec
	stats *Stats
	limit int64
	// blocks holds the recycled blocks under ReadMatRecycled's rows, and
	// refs counts their readers: the handler's own reference plus one per
	// Retain. The last Release hands the blocks back.
	blocks blockSet
	refs   atomic.Int64
}

// NewExchange negotiates codecs for one request. limit caps the request
// body (non-positive: DefaultMaxBody). A request counts as binary when
// either direction negotiated the frame codec.
func NewExchange(r *http.Request, stats *Stats, limit int64) *Exchange {
	e := &Exchange{
		req:   r,
		in:    requestCodec(r),
		out:   responseCodec(r),
		stats: stats,
		limit: limit,
	}
	e.refs.Store(1)
	stats.CountRequest(e.in.Name() == NameBinary || e.out.Name() == NameBinary)
	return e
}

// requestCodec picks the body codec from Content-Type. Anything but the
// frame type — including absent or malformed values — is treated as JSON,
// matching the pre-codec server, which never inspected the header.
func requestCodec(r *http.Request) Codec {
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == ContentTypeBinary {
		return Binary{}
	}
	return JSON{}
}

// responseCodec picks the response codec from Accept: the frame type
// anywhere in the list selects binary (with its optional prec=f32
// parameter); everything else — absent, */*, unparsable — falls back to
// JSON. An old client never sees a frame it did not ask for.
func responseCodec(r *http.Request) Codec {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mt != ContentTypeBinary {
			continue
		}
		return Binary{Float32: params["prec"] == "f32"}
	}
	return JSON{}
}

// BinaryIn reports whether the request body rides the frame codec — the
// one negotiation fact handlers with non-float envelope parts (the job
// submit op, say) need to branch on.
func (e *Exchange) BinaryIn() bool { return e.in.Name() == NameBinary }

// BinaryOut returns the response frame codec when the client asked for
// one, carrying the negotiated float32 preference.
func (e *Exchange) BinaryOut() (Binary, bool) {
	b, ok := e.out.(Binary)
	return b, ok
}

// body wraps the request body so consumed bytes land in the stats.
func (e *Exchange) body() io.Reader {
	return &countReader{r: e.req.Body, stats: e.stats}
}

// ReadVec decodes the request body as a single vector.
func (e *Exchange) ReadVec(field string) ([]float64, error) {
	defer e.req.Body.Close()
	return e.in.DecodeVec(e.body(), e.limit, field)
}

// ReadMat decodes the request body as a row list.
func (e *Exchange) ReadMat(field string) ([][]float64, error) {
	defer e.req.Body.Close()
	return e.in.DecodeMat(e.body(), e.limit, field)
}

// ReadMatRecycled is ReadMat for a handler that knows when its rows go
// out of use. On the frame codec, a frame that fills at least one decode
// block is read into blocks recycled from earlier requests instead of
// freshly zeroed ones, and those blocks belong to the Exchange: the
// handler must not read the rows after its Release, and code that may read
// them past the handler's own return (a hedged shard's losing attempts)
// holds them with Retain and Release. A handler that never calls Release
// leaves its blocks to the garbage collector. Smaller frames and JSON
// bodies decode exactly as ReadMat does.
func (e *Exchange) ReadMatRecycled(field string) ([][]float64, error) {
	if !e.BinaryIn() {
		return e.ReadMat(field)
	}
	defer e.req.Body.Close()
	return readFrame(newLimited(e.body(), e.limit), &e.blocks)
}

// Retain adds a reader of ReadMatRecycled's rows; each Retain needs its
// own Release. It must come before the handler's Release, while the rows
// are still held. Retain and Release are no-ops on a nil Exchange.
func (e *Exchange) Retain() {
	if e != nil {
		e.refs.Add(1)
	}
}

// Release drops one reader of ReadMatRecycled's rows — the handler's own
// reference first taken by NewExchange, or one Retain. The last one hands
// the rows' blocks back for the next request to decode into; nothing may
// read the rows after it.
func (e *Exchange) Release() {
	if e != nil && e.refs.Add(-1) == 0 {
		e.blocks.recycle(0)
	}
}

// ReadJSON strictly decodes a JSON request body — the escape hatch for
// envelopes that carry more than one float payload field.
func (e *Exchange) ReadJSON(dst any) error {
	defer e.req.Body.Close()
	return DecodeJSON(e.body(), e.limit, dst, true)
}

// WriteVec encodes v as a 200 response in the negotiated response codec.
func (e *Exchange) WriteVec(w http.ResponseWriter, field string, v []float64) {
	w.Header().Set("Content-Type", e.out.ContentType())
	w.WriteHeader(http.StatusOK)
	// Encoding errors past the header are unrecoverable; best effort.
	_ = e.out.EncodeVec(e.CountWriter(w), field, v)
}

// WriteMat encodes m as a 200 response in the negotiated response codec.
func (e *Exchange) WriteMat(w http.ResponseWriter, field string, m [][]float64) {
	w.Header().Set("Content-Type", e.out.ContentType())
	w.WriteHeader(http.StatusOK)
	_ = e.out.EncodeMat(e.CountWriter(w), field, m)
}

// WriteJSON writes a JSON response body, counting its bytes — for
// endpoint-specific envelopes (job views) that are JSON in every codec
// pairing but still cross the payload seam.
func (e *Exchange) WriteJSON(w http.ResponseWriter, status int, v any) {
	cw := &countResponseWriter{ResponseWriter: w, stats: e.stats}
	WriteJSON(cw, status, v)
}

// Error writes the protocol's JSON error envelope.
func (e *Exchange) Error(w http.ResponseWriter, status int, err error) {
	WriteError(w, status, err)
}

// CountWriter wraps w so written payload bytes land in the stats — for
// handlers that stream frames directly (the job result stream).
func (e *Exchange) CountWriter(w io.Writer) io.Writer {
	return &countWriter{w: w, stats: e.stats}
}

type countReader struct {
	r     io.Reader
	stats *Stats
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.stats.AddBytesIn(int64(n))
	return n, err
}

type countWriter struct {
	w     io.Writer
	stats *Stats
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.stats.AddBytesOut(int64(n))
	return n, err
}

// countResponseWriter keeps the http.ResponseWriter surface (header and
// status control) while counting body bytes.
type countResponseWriter struct {
	http.ResponseWriter
	stats *Stats
}

func (c *countResponseWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.stats.AddBytesOut(int64(n))
	return n, err
}
