package api

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/wire"
)

// The wire protocol is deliberately what a minimal prediction service looks
// like:
//
//	GET  /meta     -> {"name":..., "dim":d, "classes":C, "codecs":[...]}
//	POST /predict  {"x":[...]}        -> {"probs":[...]}
//	POST /batch    {"xs":[[...],..]}  -> {"probs":[[...],..]}
//	GET  /stats    -> {"queries":n, ...}
//
// Only probabilities cross the wire — never parameters — so the server side
// is a faithful stand-in for the cloud APIs the paper targets.
//
// Payload encoding is pluggable (internal/wire): the JSON envelopes above
// are the universal fallback, and peers that both advertise the binary
// float-frame codec ship the same payloads as length-prefixed little-endian
// frames at a fraction of the bytes. Negotiation is per request via
// Content-Type and Accept; /meta advertises what the server speaks.

// APIVersion is the versioned-path generation this server speaks: every
// endpoint is mounted both at its legacy unversioned path and under
// /v1/..., and /meta advertises the number so clients prefer the versioned
// prefix — the same advertise-then-upgrade pattern the codec negotiation
// uses. Absent (0) on pre-versioning servers.
const APIVersion = 1

type metaResponse struct {
	Name    string `json:"name"`
	Dim     int    `json:"dim"`
	Classes int    `json:"classes"`
	// Codecs lists the payload codecs the server accepts ("json",
	// "binary"). Absent on pre-codec servers — which is exactly how a new
	// client knows to stay on JSON against an old peer.
	Codecs []string `json:"codecs,omitempty"`
	// APIVersion advertises the versioned path prefix (/v1) generation.
	// Absent on pre-versioning servers — which is how a new client knows
	// to stay on the unversioned paths against an old peer.
	APIVersion int `json:"api_version,omitempty"`
}

// AtlasStatus is the /stats section a mounted region atlas fills in with
// what the store's own numbers (under caches.regions) lack: records
// quarantined as corrupt, how many closed forms this process actually
// composed, and census sweep progress.
type AtlasStatus struct {
	Quarantined  int64 `json:"quarantined"`
	Compositions int64 `json:"compositions"`
	// Census progress: instances swept so far out of the submitted total
	// (across all census jobs), and the ratio when a total exists.
	CensusDone     int64   `json:"census_done"`
	CensusTotal    int64   `json:"census_total"`
	CensusProgress float64 `json:"census_progress"`
}

type statsResponse struct {
	Queries    int64 `json:"queries"`
	RoundTrips int64 `json:"round_trips"`
	// Wire counters: payload bytes through the codec seam and the
	// binary/JSON request split. Always present — a zero is information.
	wire.Counts
	// ReplicaQueries breaks Queries down per model replica when the served
	// model is a Shard; absent for single-replica servers.
	ReplicaQueries []int64 `json:"replica_queries,omitempty"`
	// Backends is the per-backend breakdown when the served model is a
	// Shard: kind (local/remote), health state, inflight, retry and failure
	// counters. A remote or temporarily unhealthy backend stays listed with
	// state "unreachable" rather than disappearing from the report.
	Backends []BackendStatus `json:"backends,omitempty"`
	// Registry is the fleet-membership section a mounted Registry fills in:
	// live members and the join/leave/expiry transition counters.
	Registry *RegistryStatus `json:"registry,omitempty"`
	// Caches is the unified per-store section: every cache in the process
	// (response cache, region cache, atlas) reports the same
	// hits/misses/evictions/size/bytes shape under its name, so dashboards
	// parse one schema; a ResponseCache in front of the model reports as
	// "response".
	Caches map[string]plm.StoreStats `json:"caches,omitempty"`
	// Atlas is the region-atlas section (plmserve -atlas).
	Atlas *AtlasStatus `json:"atlas,omitempty"`
}

// serverCodecs is what /meta advertises.
var serverCodecs = []string{wire.NameJSON, wire.NameBinary}

// Server exposes a plm.Model over HTTP. It implements http.Handler.
type Server struct {
	model   plm.Model
	name    string
	mux     *http.ServeMux
	queries atomic.Int64
	// requests counts prediction round trips: one per served /predict or
	// /batch call, however many probes the batch carried. The ratio
	// queries/requests is the server-side view of how well clients batch.
	requests atomic.Int64
	// wireStats counts payload bytes and the codec split across the
	// payload-carrying endpoints (/predict, /batch, /jobs) — the /meta and
	// /stats control surface is not wire traffic worth metering.
	wireStats wire.Stats
	// Latency, when positive, is added to every prediction request to
	// simulate a slow remote.
	Latency time.Duration
	// MaxBody caps request body bytes (0: wire.DefaultMaxBody, 64 MB). A
	// body stopped by the cap answers 413, not a generic decode 400.
	MaxBody int64
	// statsExtras are hooks mounted subsystems (the fleet registry) use to
	// add their own sections to the /stats report.
	statsExtras []func(*statsResponse)
	// storeStats are the named per-store accounting hooks behind the
	// unified /stats "caches" section.
	storeStats []namedStoreStats
	// atlasStatus, when set, fills the /stats "atlas" section.
	atlasStatus func() AtlasStatus
}

type namedStoreStats struct {
	name string
	get  func() plm.StoreStats
}

// NewServer wraps model as an HTTP prediction service. Every endpoint —
// including ones mounted later through Handle — answers both at its legacy
// path and under the /v1 prefix.
func NewServer(model plm.Model, name string) *Server {
	s := &Server{model: model, name: name, mux: http.NewServeMux()}
	s.Handle("GET /meta", s.handleMeta)
	s.Handle("POST /predict", s.handlePredict)
	s.Handle("POST /batch", s.handleBatch)
	s.Handle("GET /stats", s.handleStats)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Queries returns the number of single predictions served (batch items
// count individually).
func (s *Server) Queries() int64 { return s.queries.Load() }

// Requests returns the number of prediction round trips served — the
// denominator of the batching win a query aggregator buys.
func (s *Server) Requests() int64 { return s.requests.Load() }

// WireStats returns the server's wire counter set — mounted subsystems
// (the async job API) count their payload traffic into the same seam.
func (s *Server) WireStats() *wire.Stats { return &s.wireStats }

// WireCounts snapshots the server's wire counters.
func (s *Server) WireCounts() wire.Counts { return s.wireStats.Counts() }

// exchange builds the per-request codec seam for a payload endpoint.
func (s *Server) exchange(r *http.Request) *wire.Exchange {
	return wire.NewExchange(r, &s.wireStats, s.MaxBody)
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, metaResponse{
		Name: s.name, Dim: s.model.Dim(), Classes: s.model.Classes(),
		Codecs: serverCodecs, APIVersion: APIVersion,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Queries:    s.queries.Load(),
		RoundTrips: s.requests.Load(),
		Counts:     s.wireStats.Counts(),
	}
	addCache := func(name string, st plm.StoreStats) {
		if resp.Caches == nil {
			resp.Caches = make(map[string]plm.StoreStats, len(s.storeStats)+1)
		}
		resp.Caches[name] = st
	}
	model := s.model
	if rc, ok := model.(*ResponseCache); ok {
		addCache("response", rc.StoreStats())
		// The replica breakdown lives behind the cache.
		model = rc.Inner()
	}
	if sh, ok := model.(*Shard); ok {
		resp.ReplicaQueries = sh.ReplicaQueries()
		resp.Backends = sh.BackendStatus()
	}
	for _, st := range s.storeStats {
		addCache(st.name, st.get())
	}
	if s.atlasStatus != nil {
		status := s.atlasStatus()
		resp.Atlas = &status
	}
	for _, extra := range s.statsExtras {
		extra(&resp)
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// Handle mounts an extra handler on the server's mux — how optional
// subsystems (the async job API, say) attach their endpoints without the
// core server depending on them. The handler answers at both the given
// pattern and its /v1-prefixed alias.
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	if v := versionedPattern(pattern); v != "" {
		s.mux.HandleFunc(v, h)
	}
}

// versionedPattern maps "METHOD /path" to "METHOD /v1/path" (or "/path" to
// "/v1/path"), returning "" when the pattern is already versioned or has no
// rooted path to prefix.
func versionedPattern(pattern string) string {
	method, path, found := strings.Cut(pattern, " ")
	if !found {
		method, path = "", pattern
	}
	if !strings.HasPrefix(path, "/") || path == "/" ||
		path == "/v1" || strings.HasPrefix(path, "/v1/") {
		return ""
	}
	if method == "" {
		return "/v1" + path
	}
	return method + " /v1" + path
}

// AddStoreStats registers a named store for the unified /stats "caches"
// section. Register before serving: the slice is not guarded.
func (s *Server) AddStoreStats(name string, get func() plm.StoreStats) {
	s.storeStats = append(s.storeStats, namedStoreStats{name: name, get: get})
}

// SetAtlasStatus installs the hook filling the /stats "atlas" section.
func (s *Server) SetAtlasStatus(get func() AtlasStatus) { s.atlasStatus = get }

// SetRegionSource mounts GET /regions/{key} (and its /v1 alias): the
// closed-form (W, b) of one stored region by PatternKey. Clients accepting
// the binary codec get the PLMB framing (W frame, then B as one row —
// bit-identical Float64bits); everyone else gets JSON. Only metadata the
// paper's closed form already implies crosses the wire here: the endpoint
// serves the *stored interpretation artifact*, never raw model parameters.
func (s *Server) SetRegionSource(lookup func(key string) (*plm.Linear, bool)) {
	s.Handle("GET /regions/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		lin, ok := lookup(key)
		if !ok {
			wire.WriteError(w, http.StatusNotFound, fmt.Errorf("region %q not stored", key))
			return
		}
		rows := make([][]float64, lin.W.Rows())
		for i := range rows {
			rows[i] = lin.W.RawRow(i)
		}
		ex := s.exchange(r)
		if ex.BinaryOut() {
			w.Header().Set("Content-Type", wire.ContentTypeBinary)
			cw := ex.CountWriter(w)
			if err := wire.WriteFrame(cw, rows); err != nil {
				return
			}
			_ = wire.WriteFrame(cw, [][]float64{lin.B})
			return
		}
		ex.WriteJSON(w, http.StatusOK, regionResponse{Key: lin.Key, W: rows, B: lin.B})
	})
}

// regionResponse is the JSON shape of GET /regions/{key}.
type regionResponse struct {
	Key string      `json:"key"`
	W   [][]float64 `json:"w"`
	B   []float64   `json:"b"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ex := s.exchange(r)
	x, err := ex.ReadVec("x")
	if err != nil {
		ex.Error(w, wire.DecodeStatus(err), err)
		return
	}
	if len(x) != s.model.Dim() {
		ex.Error(w, http.StatusBadRequest, fmt.Errorf("input length %d != %d", len(x), s.model.Dim()))
		return
	}
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	// A single prediction is a batch of one: the same model call, failure
	// rule and count-after-success as /batch.
	ys, err := s.predictRows(r.Context(), []mat.Vec{x})
	if err != nil {
		ex.Error(w, http.StatusInternalServerError, err)
		return
	}
	s.requests.Add(1)
	s.queries.Add(1)
	ex.WriteVec(w, "probs", ys[0])
}

// predictRows answers xs through the model's own batch endpoint — a
// Shard's load-aware fan-out, say — or, for plain models, per probe. A
// model with an error surface (a Shard whose backends are all gone) fails
// the call instead of fabricating probabilities, and a context-aware one
// sees ctx, so a client that hangs up cancels its own fan-out.
func (s *Server) predictRows(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if cb, ok := s.model.(ctxBatchPredictor); ok {
		return cb.PredictBatchCtx(ctx, xs)
	}
	return plm.PredictAll(s.model, xs)
}

// ctxBatchPredictor is the deadline-aware refinement of plm.BatchPredictor.
type ctxBatchPredictor interface {
	PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error)
}

// rowsKey is the context key under which handleBatch hands the model the
// *wire.Exchange holding the batch's rows, so a model whose goroutines can
// read the rows after its batch call returns (Shard.dispatch's losing
// attempts) keeps them out of the next request's decode (heldRows).
type rowsKey struct{}

// heldRows returns the Exchange holding a batch's rows, or nil when ctx
// did not come from handleBatch; its Retain and Release are nil-safe.
func heldRows(ctx context.Context) *wire.Exchange {
	ex, _ := ctx.Value(rowsKey{}).(*wire.Exchange)
	return ex
}

// handleBatch decodes the rows into recycled blocks and gives them back
// once the response is written. Every model in this package reads xs only
// until its batch call returns, or holds them through heldRows; a model
// that keeps or hands on its inputs past that point must copy them.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ex := s.exchange(r)
	rows, err := ex.ReadMatRecycled("xs")
	defer ex.Release()
	if err != nil {
		ex.Error(w, wire.DecodeStatus(err), err)
		return
	}
	// An empty batch is a no-op, not a round trip: counting it would skew
	// the queries/round_trips ratio the stats report (and the integration
	// gate) with zero-query requests.
	if len(rows) == 0 {
		ex.WriteMat(w, "probs", [][]float64{})
		return
	}
	// Validate everything before counting: a rejected request must not
	// skew the queries/round_trips ratio the stats report.
	for i, x := range rows {
		if len(x) != s.model.Dim() {
			ex.Error(w, http.StatusBadRequest, fmt.Errorf("batch item %d length %d != %d", i, len(x), s.model.Dim()))
			return
		}
	}
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	xs := make([]mat.Vec, len(rows))
	for i, x := range rows {
		xs[i] = mat.Vec(x)
	}
	// Count only after the model answers: a failed batch delivered zero
	// answers, and counting it (times the client's 5xx retries) would skew
	// the queries/round_trips ratio like any other rejected request.
	ys, err := s.predictRows(context.WithValue(r.Context(), rowsKey{}, ex), xs)
	if err != nil {
		ex.Error(w, http.StatusInternalServerError, err)
		return
	}
	s.requests.Add(1)
	s.queries.Add(int64(len(rows)))
	out := make([][]float64, len(ys))
	for i, y := range ys {
		out[i] = y
	}
	ex.WriteMat(w, "probs", out)
}

// clientMaxBody caps how much response body a client will decode.
const clientMaxBody = wire.DefaultMaxBody

// defaultTransport is shared by every client Dial builds itself. The
// stock http.DefaultTransport keeps only 2 idle connections per host —
// an aggregator plus a shard fan-out against one server churns through
// fresh TCP connections, and the binary codec's small frames only pipeline
// when the connection stays warm. One shared pool, sized for the shard's
// concurrency, keeps every dialed peer on persistent connections.
var defaultTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        128,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
}

// Client is an HTTP prediction client implementing plm.Model. Transport
// errors are sticky (the bufio.Scanner pattern): Predict returns a uniform
// distribution and records the error, and callers check Err when the
// interpretation finishes. This keeps plm.Model's pure-math surface while
// still surfacing failures.
//
// The client speaks the binary float-frame codec automatically when the
// server's /meta advertises it, and stays on JSON otherwise — so a new
// client against an old server interoperates without configuration.
// SetCodec adjusts the choice; call it before sharing the client across
// goroutines. Every payload travels as exact float64 bits on both codecs.
type Client struct {
	baseURL string
	httpc   *http.Client
	meta    metaResponse
	retries int
	// binary selects the frame codec for requests and the Accept header;
	// binaryOK records whether the server advertised it.
	binary    bool
	binaryOK  bool
	wireStats wire.Stats
	// prefix is "/v1" once the server's /meta advertised api_version >= 1,
	// and "" against older peers — negotiated exactly like the codec.
	prefix string

	// PingTimeout bounds each PingCtx health probe so a dead host
	// cannot stall the prober for the transport timeout. Dial sets 2s;
	// zero disables the bound (the caller's context still applies).
	PingTimeout time.Duration

	mu  sync.Mutex
	err error
}

// Dial connects to an API server, fetches its metadata, and returns a
// client. retries is the number of extra attempts per request (0 = none).
// When httpc is nil a default client with a keep-alive-tuned shared
// transport is used.
func Dial(baseURL string, httpc *http.Client, retries int) (*Client, error) {
	if httpc == nil {
		httpc = &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport}
	}
	if retries < 0 {
		retries = 0
	}
	c := &Client{baseURL: baseURL, httpc: httpc, retries: retries, PingTimeout: 2 * time.Second}
	resp, err := httpc.Get(baseURL + "/meta")
	if err != nil {
		return nil, fmt.Errorf("api: dial %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("api: meta returned %s", resp.Status)
	}
	if err := wire.DecodeJSON(resp.Body, clientMaxBody, &c.meta, false); err != nil {
		return nil, fmt.Errorf("api: decode meta: %w", err)
	}
	if c.meta.Dim <= 0 || c.meta.Classes < 2 {
		return nil, fmt.Errorf("api: implausible meta %+v", c.meta)
	}
	for _, name := range c.meta.Codecs {
		if name == wire.NameBinary {
			c.binary, c.binaryOK = true, true
		}
	}
	if c.meta.APIVersion >= 1 {
		c.prefix = "/v1"
	}
	return c, nil
}

// Prefix returns the negotiated path prefix ("/v1" against a versioned
// server, "" otherwise). Subsystems extending the wire protocol with their
// own endpoints (the async job client) build their paths through it.
func (c *Client) Prefix() string { return c.prefix }

// path prepends the negotiated version prefix to an endpoint path.
func (c *Client) path(p string) string { return c.prefix + p }

// Name returns the remote model's advertised name.
func (c *Client) Name() string { return c.meta.Name }

// BaseURL returns the server address the client was dialed against.
func (c *Client) BaseURL() string { return c.baseURL }

// HTTPClient returns the underlying HTTP client — for subsystems (the
// async job client, say) that extend the wire protocol with their own
// endpoints against the same server.
func (c *Client) HTTPClient() *http.Client { return c.httpc }

// Codec returns the request codec the client currently speaks.
func (c *Client) Codec() wire.Codec {
	if c.binary {
		return wire.Binary{}
	}
	return wire.JSON{}
}

// CodecName returns "json" or "binary".
func (c *Client) CodecName() string { return c.Codec().Name() }

// SetCodec overrides the negotiated codec: "json" always works, "binary"
// only against a server that advertised it.
func (c *Client) SetCodec(name string) error {
	switch name {
	case wire.NameJSON:
		c.binary = false
	case wire.NameBinary:
		if !c.binaryOK {
			return fmt.Errorf("api: server %s does not advertise the binary codec", c.baseURL)
		}
		c.binary = true
	default:
		return fmt.Errorf("api: unknown codec %q", name)
	}
	return nil
}

// WireCounts snapshots the client-side wire counters: payload bytes
// shipped and received and the codec split of its requests. A shard
// reaches through here for its per-remote-backend /stats breakdown.
func (c *Client) WireCounts() wire.Counts { return c.wireStats.Counts() }

// PingCtx checks that the server still answers its /meta endpoint, the
// health probe remote shard backends use. The probe ends at the earlier of
// the context's deadline and the client's PingTimeout, so a recovery probe
// inherits the shard's probe budget while a caller hang-up stops it at once.
func (c *Client) PingCtx(ctx context.Context) error {
	if c.PingTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.PingTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/meta", nil)
	if err != nil {
		return fmt.Errorf("api: ping %s: %w", c.baseURL, err)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("api: ping %s: %w", c.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("api: ping %s returned %s", c.baseURL, resp.Status)
	}
	return nil
}

// Dim returns the remote model's input dimensionality.
func (c *Client) Dim() int { return c.meta.Dim }

// Classes returns the remote model's class count.
func (c *Client) Classes() int { return c.meta.Classes }

// Err returns the first transport error encountered, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ResetErr clears the sticky error.
func (c *Client) ResetErr() {
	c.mu.Lock()
	c.err = nil
	c.mu.Unlock()
}

func (c *Client) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// countingReader funnels received payload bytes into the client's wire
// counters as decodes consume them.
type countingReader struct {
	r     io.Reader
	stats *wire.Stats
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.stats.AddBytesIn(int64(n))
	return n, err
}

// do ships one request, retrying transport errors, 5xx responses and body
// decode failures up to c.retries extra times. body opens a fresh request
// body and reports its exact size; every attempt, and every rewind the
// transport makes on a lost connection, reads its own. A 4xx
// response is the server rejecting the request itself — re-sending the
// same payload can only waste round trips and delay the caller seeing its
// own mistake — so those return immediately. A done context also returns
// immediately: retrying a request whose caller is gone (deadline hit, or a
// hedge race already won elsewhere) only burns the server. decode runs on
// 200 responses and must consult the response's own Content-Type, so a
// JSON answer from a codec-unaware peer decodes fine whatever the request
// asked for.
func (c *Client) do(ctx context.Context, path string, body func() (io.ReadCloser, int64), decode func(*http.Response) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return lastErr
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, nil)
		if err != nil {
			return fmt.Errorf("api: build request: %w", err)
		}
		var size int64
		req.Body, size = body()
		req.ContentLength = size
		req.GetBody = func() (io.ReadCloser, error) {
			rc, _ := body()
			return rc, nil
		}
		codec := c.Codec()
		req.Header.Set("Content-Type", codec.ContentType())
		req.Header.Set("Accept", wire.AcceptValue(codec))
		c.wireStats.CountRequest(c.binary)
		c.wireStats.AddBytesOut(size)
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		retryable := true
		func() {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
				lastErr = fmt.Errorf("api: %s returned %s: %s", path, resp.Status, bytes.TrimSpace(b))
				retryable = resp.StatusCode >= 500
				return
			}
			lastErr = decode(resp)
		}()
		if lastErr == nil {
			return nil
		}
		if !retryable {
			return lastErr
		}
	}
	return lastErr
}

// bytesBody serves an encoded payload as request bodies.
func bytesBody(payload []byte) func() (io.ReadCloser, int64) {
	return func() (io.ReadCloser, int64) {
		return io.NopCloser(bytes.NewReader(payload)), int64(len(payload))
	}
}

// frameBodies serves one matrix as streamed binary frame bodies
// (wire.FrameBody) and remembers each, so the caller can wait until the
// transport has closed them all: net/http may still be reading a request
// body after Do returns, and the rows belong to the caller.
type frameBodies struct {
	m      [][]float64
	mu     sync.Mutex
	first  *wire.FrameBody // validated up front, handed out by the first open
	opened []*wire.FrameBody
}

// newFrameBodies rejects a matrix that cannot travel as one frame before
// any request is built.
func newFrameBodies(m [][]float64) (*frameBodies, error) {
	b, err := wire.NewFrameBody(m)
	if err != nil {
		return nil, err
	}
	return &frameBodies{m: m, first: b}, nil
}

// open returns a fresh body positioned at the frame's first byte.
func (f *frameBodies) open() (io.ReadCloser, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.first
	if b == nil {
		b, _ = wire.NewFrameBody(f.m) // m passed newFrameBodies
	}
	f.first = nil
	f.opened = append(f.opened, b)
	return b, b.Len()
}

// wait blocks until every body handed out has been closed. A body never
// handed out (a request abandoned before its first attempt) holds nothing.
func (f *frameBodies) wait() {
	f.mu.Lock()
	opened := f.opened
	f.mu.Unlock()
	for _, b := range opened {
		<-b.Closed()
	}
}

// postVec ships a vector payload and decodes a vector response.
func (c *Client) postVec(ctx context.Context, path, reqField string, v []float64, respField string) ([]float64, error) {
	var buf bytes.Buffer
	if err := c.Codec().EncodeVec(&buf, reqField, v); err != nil {
		return nil, fmt.Errorf("api: encode request: %w", err)
	}
	var out []float64
	err := c.do(ctx, path, bytesBody(buf.Bytes()), func(resp *http.Response) error {
		codec := wire.ResponseBodyCodec(resp.Header.Get("Content-Type"))
		got, err := codec.DecodeVec(&countingReader{r: resp.Body, stats: &c.wireStats}, clientMaxBody, respField)
		if err != nil {
			return err
		}
		out = got
		return nil
	})
	return out, err
}

// postMat ships a matrix payload and decodes a matrix response. On the
// binary codec the request frame is streamed (wire.FrameBody) rather than
// staged: rows are encoded as the transport writes them, and postMat
// returns only once the transport is done with them.
func (c *Client) postMat(ctx context.Context, path, reqField string, m [][]float64, respField string) ([][]float64, error) {
	var body func() (io.ReadCloser, int64)
	if c.binary {
		frames, err := newFrameBodies(m)
		if err != nil {
			return nil, fmt.Errorf("api: encode request: %w", err)
		}
		defer frames.wait()
		body = frames.open
	} else {
		var buf bytes.Buffer
		if err := c.Codec().EncodeMat(&buf, reqField, m); err != nil {
			return nil, fmt.Errorf("api: encode request: %w", err)
		}
		body = bytesBody(buf.Bytes())
	}
	var out [][]float64
	err := c.do(ctx, path, body, func(resp *http.Response) error {
		codec := wire.ResponseBodyCodec(resp.Header.Get("Content-Type"))
		got, err := codec.DecodeMat(&countingReader{r: resp.Body, stats: &c.wireStats}, clientMaxBody, respField)
		if err != nil {
			return err
		}
		out = got
		return nil
	})
	return out, err
}

// PredictErr performs one remote prediction, returning transport errors
// directly.
func (c *Client) PredictErr(x mat.Vec) (mat.Vec, error) {
	return c.PredictErrCtx(context.Background(), x)
}

// PredictErrCtx is PredictErr under a caller context: the request is
// cancelled — including retries in flight — the moment the context ends.
func (c *Client) PredictErrCtx(ctx context.Context, x mat.Vec) (mat.Vec, error) {
	probs, err := c.postVec(ctx, c.path("/predict"), "x", x, "probs")
	if err != nil {
		return nil, err
	}
	if len(probs) != c.meta.Classes {
		return nil, fmt.Errorf("api: server returned %d probabilities, want %d", len(probs), c.meta.Classes)
	}
	return mat.Vec(probs), nil
}

// Predict implements plm.Model with sticky error handling.
func (c *Client) Predict(x mat.Vec) mat.Vec {
	p, err := c.PredictErr(x)
	if err != nil {
		c.record(err)
		u := make(mat.Vec, c.meta.Classes)
		return u.Fill(1 / float64(c.meta.Classes))
	}
	return p
}

// PredictBatch performs one batched remote prediction. An empty batch is
// answered locally — there is nothing to ask the server.
func (c *Client) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return c.PredictBatchCtx(context.Background(), xs)
}

// PredictBatchCtx is PredictBatch under a caller context. It is how a shard
// deadline (or a hedge race loss) reaches the wire: the HTTP request is
// built on the context and dies with it.
func (c *Client) PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = x
	}
	probs, err := c.postMat(ctx, c.path("/batch"), "xs", rows, "probs")
	if err != nil {
		return nil, err
	}
	if len(probs) != len(xs) {
		return nil, fmt.Errorf("api: server returned %d batch items, want %d", len(probs), len(xs))
	}
	res := make([]mat.Vec, len(probs))
	for i, p := range probs {
		if len(p) != c.meta.Classes {
			return nil, fmt.Errorf("api: batch item %d has %d probabilities, want %d", i, len(p), c.meta.Classes)
		}
		res[i] = mat.Vec(p)
	}
	return res, nil
}

var _ plm.Model = (*Client)(nil)
var _ plm.Model = (*Counter)(nil)
var _ plm.Model = (*Flaky)(nil)
var _ plm.BatchPredictor = (*Flaky)(nil)
var _ ctxBatchPredictor = (*Client)(nil)
