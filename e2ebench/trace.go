package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
)

// Span names, one per layer boundary the traced run records. Every span is
// recorded by the benchmark's own code around a call into a layer's public
// surface; the program itself is not instrumented.
const (
	spanOp        = "op"          // one benchmark operation
	spanInterpret = "core"        // core.OpenAPI.Interpret
	spanClient    = "api.client"  // api.Client.PredictBatch(Ctx) on the benchmark side
	spanClientRT  = "net.client"  // HTTP round trip benchmark client -> router
	spanRouter    = "api.router"  // router api.Server handler
	spanShard     = "api.shard"   // router api.Shard.PredictBatchCtx
	spanBackendRT = "net.backend" // HTTP round trip router -> worker
	spanWorker    = "api.worker"  // worker api.Server handler
	spanForward   = "nn.forward"  // worker model PredictBatch
)

// spanHeader carries "<op>-<span>" across HTTP hops so the receiving
// handler parents its span on the sender's round trip.
const spanHeader = "X-Bench-Span"

// ref identifies a span and the operation it belongs to. The zero ref means
// "outside any operation" (set-up and warm-up traffic).
type ref struct{ op, id int64 }

func (r ref) String() string { return strconv.FormatInt(r.op, 10) + "-" + strconv.FormatInt(r.id, 10) }

func parseRef(s string) (ref, bool) {
	a, b, ok := strings.Cut(s, "-")
	op, err1 := strconv.ParseInt(a, 10, 64)
	id, err2 := strconv.ParseInt(b, 10, 64)
	return ref{op, id}, ok && err1 == nil && err2 == nil
}

type ctxKey struct{}

func withRef(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

func refFrom(ctx context.Context) (ref, bool) {
	if ctx == nil {
		return ref{}, false
	}
	r, ok := ctx.Value(ctxKey{}).(ref)
	return r, ok
}

// span is one recorded interval. Times are offsets from the tracer's epoch
// on the monotonic clock.
type span struct {
	Name       string
	Op, ID     int64
	Parent     int64
	Start, End time.Duration
	Rows       int  // batch rows the call carried (0 when not a batch call)
	Failed     bool // round trips: transport error or non-200 status
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span

	// bound maps a goroutine to the handler span it is serving. The worker
	// model is called without a context (api.Server hands the request
	// context only to context-aware models), but on the handler's own
	// goroutine, so the handler middleware binds its span there.
	gmu   sync.Mutex
	bound map[uint64]ref

	transport http.RoundTripper
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), bound: map[uint64]ref{}, transport: newTransport()}
}

// newTransport is configured like api.Dial's default transport: one
// shared keep-alive pool sized for the shard's concurrency.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under parent and returns its ref and start time.
func (t *tracer) begin(parent ref) (ref, time.Duration) {
	return ref{op: parent.op, id: t.nextID.Add(1)}, t.now()
}

func (t *tracer) finish(name string, r ref, parent ref, start time.Duration, rows int, failed bool) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: r.op, ID: r.id, Parent: parent.id,
		Start: start, End: end, Rows: rows, Failed: failed})
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh set.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// goid returns the current goroutine's id from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func (t *tracer) bind(r ref) uint64 {
	g := goid()
	t.gmu.Lock()
	t.bound[g] = r
	t.gmu.Unlock()
	return g
}

func (t *tracer) unbind(g uint64) {
	t.gmu.Lock()
	delete(t.bound, g)
	t.gmu.Unlock()
}

func (t *tracer) boundRef() ref {
	g := goid()
	t.gmu.Lock()
	defer t.gmu.Unlock()
	return t.bound[g]
}

// site is a single-flight caller — one closed-loop benchmark client — whose
// current span parents the calls it makes without a context.
type site struct {
	mu  sync.Mutex
	cur ref
}

func (s *site) get() ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// set makes r current and returns the previous span.
func (s *site) set(r ref) ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.cur
	s.cur = r
	return prev
}

// parentOf finds the span a call is made under: the one in its context,
// else the caller site's current span, else the handler span bound to this
// goroutine.
func (t *tracer) parentOf(ctx context.Context, s *site) ref {
	if r, ok := refFrom(ctx); ok {
		return r
	}
	if s != nil {
		return s.get()
	}
	return t.boundRef()
}

// middleware records one span per request and hands the span to the
// handler through the request context and the goroutine binding. Requests
// without the span header (dial-time /meta) pass through unrecorded.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseRef(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		me, start := t.begin(parent)
		g := t.bind(me)
		next.ServeHTTP(w, r.WithContext(withRef(r.Context(), me)))
		t.unbind(g)
		t.finish(name, me, parent, start, 0, false)
	})
}

// roundTripper records one span per HTTP attempt of an op — retries
// included — and stamps the span header on the outgoing copy of the
// request.
type roundTripper struct {
	t     *tracer
	name  string
	site  *site
	inner http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := rt.t.parentOf(req.Context(), rt.site)
	if parent.op == 0 {
		return rt.inner.RoundTrip(req) // dial and warm-up traffic
	}
	me, start := rt.t.begin(parent)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, me.String())
	resp, err := rt.inner.RoundTrip(out)
	rt.t.finish(rt.name, me, parent, start, 0, err != nil || resp.StatusCode != http.StatusOK)
	return resp, err
}

// httpClient mirrors api.Dial's default client around the tracing
// RoundTripper. A nil site marks the router's backend clients, whose
// requests always carry the shard span in their context.
func (t *tracer) httpClient(s *site) *http.Client {
	name := spanBackendRT
	if s != nil {
		name = spanClientRT
	}
	return &http.Client{Timeout: 30 * time.Second, Transport: &roundTripper{t: t, name: name, site: s, inner: t.transport}}
}

// The optional interfaces api.Server, plm.PredictAll and the benchmark
// itself branch on. A decorator must implement exactly the set its wrapped
// value implements, so a traced run takes the same branches as an
// untraced one.
type (
	batcher interface {
		PredictBatch([]mat.Vec) ([]mat.Vec, error)
	}
	ctxBatcher interface {
		PredictBatchCtx(context.Context, []mat.Vec) ([]mat.Vec, error)
	}
	errPredictor interface {
		PredictErr(mat.Vec) (mat.Vec, error)
	}
	ctxErrPredictor interface {
		PredictErrCtx(context.Context, mat.Vec) (mat.Vec, error)
	}
	errReporter interface{ Err() error }
)

// capabilities lists which optional interfaces m implements, in a fixed
// order: batch, ctxBatch, err, ctxErr, Err.
func capabilities(m any) [5]bool {
	_, b := m.(batcher)
	_, cb := m.(ctxBatcher)
	_, e := m.(errPredictor)
	_, ce := m.(ctxErrPredictor)
	_, r := m.(errReporter)
	return [5]bool{b, cb, e, ce, r}
}

// tracedModel records a span around every prediction call on inner.
type tracedModel struct {
	t     *tracer
	name  string
	site  *site
	inner plm.Model
	// onBatch, when set, sees every successful batch call's inputs and
	// outputs after its span closes (the traced interpret run's round
	// recorder).
	onBatch func(xs, ys []mat.Vec)
}

func (m *tracedModel) Dim() int     { return m.inner.Dim() }
func (m *tracedModel) Classes() int { return m.inner.Classes() }

// call runs fn inside a span. While it runs, the span is current on the
// caller site and travels in fn's context.
func (m *tracedModel) call(ctx context.Context, rows int, fn func(ctx context.Context)) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := m.t.parentOf(ctx, m.site)
	if parent.op == 0 {
		fn(ctx) // warm-up traffic
		return
	}
	me, start := m.t.begin(parent)
	if m.site != nil {
		defer m.site.set(m.site.set(me))
	}
	fn(withRef(ctx, me))
	m.t.finish(m.name, me, parent, start, rows, false)
}

func (m *tracedModel) Predict(x mat.Vec) (p mat.Vec) {
	m.call(nil, 1, func(context.Context) { p = m.inner.Predict(x) })
	return p
}

func (m *tracedModel) batch(ctx context.Context, xs []mat.Vec, fn func(context.Context) ([]mat.Vec, error)) (ys []mat.Vec, err error) {
	m.call(ctx, len(xs), func(ctx context.Context) { ys, err = fn(ctx) })
	if m.onBatch != nil && err == nil {
		m.onBatch(xs, ys)
	}
	return ys, err
}

// batchModel forwards plm.BatchPredictor (a worker's openbox.PLNN).
type batchModel struct{ *tracedModel }

func (m batchModel) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return m.batch(nil, xs, func(context.Context) ([]mat.Vec, error) {
		return m.inner.(batcher).PredictBatch(xs)
	})
}

// ctxModel forwards the full error- and context-aware surface (api.Shard).
type ctxModel struct{ batchModel }

func (m ctxModel) PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	return m.batch(ctx, xs, func(ctx context.Context) ([]mat.Vec, error) {
		return m.inner.(ctxBatcher).PredictBatchCtx(ctx, xs)
	})
}

func (m ctxModel) PredictErr(x mat.Vec) (p mat.Vec, err error) {
	m.call(nil, 1, func(context.Context) { p, err = m.inner.(errPredictor).PredictErr(x) })
	return p, err
}

func (m ctxModel) PredictErrCtx(ctx context.Context, x mat.Vec) (p mat.Vec, err error) {
	m.call(ctx, 1, func(ctx context.Context) { p, err = m.inner.(ctxErrPredictor).PredictErrCtx(ctx, x) })
	return p, err
}

// clientModel adds the sticky error surface (api.Client).
type clientModel struct{ ctxModel }

func (m clientModel) Err() error { return m.inner.(errReporter).Err() }

// wrapModel returns the decorator whose optional-interface set equals
// inner's, or an error when no decorator matches it exactly. onBatch may
// be nil.
func (t *tracer) wrapModel(inner plm.Model, name string, s *site, onBatch func(xs, ys []mat.Vec)) (plm.Model, error) {
	base := &tracedModel{t: t, name: name, site: s, inner: inner, onBatch: onBatch}
	var out plm.Model
	switch capabilities(inner) {
	case [5]bool{}:
		out = base
	case [5]bool{true, false, false, false, false}:
		out = batchModel{base}
	case [5]bool{true, true, true, true, false}:
		out = ctxModel{batchModel{base}}
	case [5]bool{true, true, true, true, true}:
		out = clientModel{ctxModel{batchModel{base}}}
	default:
		return nil, fmt.Errorf("trace: no decorator forwards exactly the interfaces of %T", inner)
	}
	return out, nil
}
