// Package chaos is the fault-injection harness behind the fleet acceptance
// battery: seeded, deterministic fault plans wrapped around shard backends
// and HTTP handlers. Where api.Flaky models a *lying* worker (degraded
// answers the aggregator must out-vote), chaos models a *failing* one —
// latency spikes, hangs, hard errors, connection resets, truncated bodies,
// flapping health — exactly the faults the router is contractually allowed
// to route around without ever changing an answer. Every injected fault is
// visible (it errors, stalls or cuts the wire), so a chaos run asserts the
// strongest property the paper's API setting needs: the fleet's output is
// bit-identical to a healthy single replica no matter what the transport
// does underneath.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
)

// Faults is one seeded fault plan. Rates are probabilities per call (or per
// HTTP request for the middleware faults); one uniform roll per call picks
// at most one fault, cumulatively, in field order — so the rates may sum to
// at most 1 and a plan's behaviour is fully determined by its seed.
type Faults struct {
	// Seed determines the whole fault sequence; same seed, same plan.
	Seed int64

	// LatencyRate injects a Latency-long stall before the call proceeds.
	LatencyRate float64
	// Latency is the injected stall (default 50ms when a rate is set).
	Latency time.Duration
	// HangRate parks the call until its context is cancelled — the worker
	// that accepted a request and went silent.
	HangRate float64
	// ErrorRate fails the call outright with ErrInjected.
	ErrorRate float64

	// ResetRate (middleware only) aborts the HTTP exchange mid-response —
	// the client sees a connection reset.
	ResetRate float64
	// TruncateRate (middleware only) writes roughly half the response body
	// and then cuts the connection — a truncated frame on the wire.
	TruncateRate float64
}

// ErrInjected is the error every chaos-injected hard failure carries.
var ErrInjected = errors.New("chaos: injected fault")

// fault is the outcome of one roll.
type fault int

const (
	faultNone fault = iota
	faultLatency
	faultHang
	faultError
	faultReset
	faultTruncate
)

// plan rolls the seeded RNG, one roll per call, under a lock so concurrent
// callers draw from one deterministic sequence.
type plan struct {
	f   Faults
	mu  sync.Mutex
	rng *rand.Rand
}

func newPlan(f Faults) *plan {
	if f.Latency == 0 {
		f.Latency = 50 * time.Millisecond
	}
	return &plan{f: f, rng: rand.New(rand.NewSource(f.Seed))}
}

func (p *plan) roll() fault {
	p.mu.Lock()
	r := p.rng.Float64()
	p.mu.Unlock()
	for _, pick := range []struct {
		rate float64
		f    fault
	}{
		{p.f.LatencyRate, faultLatency},
		{p.f.HangRate, faultHang},
		{p.f.ErrorRate, faultError},
		{p.f.ResetRate, faultReset},
		{p.f.TruncateRate, faultTruncate},
	} {
		if r < pick.rate {
			return pick.f
		}
		r -= pick.rate
	}
	return faultNone
}

// Counts reports how many of each fault a Backend or Middleware injected.
type Counts struct {
	Latencies int64 `json:"latencies"`
	Hangs     int64 `json:"hangs"`
	Errors    int64 `json:"errors"`
	Resets    int64 `json:"resets"`
	Truncates int64 `json:"truncates"`
}

type counters struct {
	latencies, hangs, errs, resets, truncates atomic.Int64
}

func (c *counters) counts() Counts {
	return Counts{
		Latencies: c.latencies.Load(),
		Hangs:     c.hangs.Load(),
		Errors:    c.errs.Load(),
		Resets:    c.resets.Load(),
		Truncates: c.truncates.Load(),
	}
}

// Backend wraps a shard backend with a seeded fault plan. Injected faults
// are always loud — an error, a stall, a hang — never a corrupted answer:
// what the inner backend would have said is what the caller gets whenever
// anything is said at all. Down is the flapping switch: while set, every
// call fails fast and Healthy reports false, so a Flapper toggling it
// exercises the same membership churn a crashing worker would.
type Backend struct {
	inner api.Backend
	plan  *plan
	ctr   counters

	// Down makes the backend refuse everything while set — flip it (or run
	// a Flapper over it) to model a worker bouncing in and out of reach.
	Down atomic.Bool
}

// Wrap builds a chaos backend over inner with the given fault plan.
func Wrap(inner api.Backend, f Faults) *Backend {
	return &Backend{inner: inner, plan: newPlan(f)}
}

// Counts reports the faults injected so far.
func (b *Backend) Counts() Counts { return b.ctr.counts() }

// inject applies one rolled fault. It returns a non-nil error when the call
// must fail instead of reaching the inner backend.
func (b *Backend) inject(ctx context.Context) error {
	if b.Down.Load() {
		return fmt.Errorf("%w: flapped down", ErrInjected)
	}
	switch b.plan.roll() {
	case faultLatency:
		b.ctr.latencies.Add(1)
		t := time.NewTimer(b.plan.f.Latency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	case faultHang:
		b.ctr.hangs.Add(1)
		<-ctx.Done()
		return ctx.Err()
	case faultError:
		b.ctr.errs.Add(1)
		return ErrInjected
	}
	return nil
}

func (b *Backend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if err := b.inject(ctx); err != nil {
		return nil, err
	}
	return b.inner.PredictBatch(ctx, xs)
}

func (b *Backend) Stats() api.BackendStats { return b.inner.Stats() }

func (b *Backend) Healthy(ctx context.Context) bool {
	return !b.Down.Load() && b.inner.Healthy(ctx)
}

// Flapper toggles a backend's Down switch on a fixed period until its
// context ends — the scripted crash-loop of the acceptance battery.
type Flapper struct {
	Backend *Backend
	// Period is the time between flips (default 10ms).
	Period time.Duration
	// Flips counts completed transitions.
	Flips atomic.Int64
}

// Run flips until ctx is done, then leaves the backend up.
func (f *Flapper) Run(ctx context.Context) {
	period := f.Period
	if period == 0 {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			f.Backend.Down.Store(false)
			return
		case <-tick.C:
			f.Backend.Down.Store(!f.Backend.Down.Load())
			f.Flips.Add(1)
		}
	}
}

// Middleware wraps an HTTP handler with wire-level faults: injected
// latency, connection resets and truncated response bodies — the failure
// modes a remote backend's HTTP client actually sees from a sick peer.
// Like Backend, it never alters bytes it does deliver: a truncated body is
// a cut-off prefix of the true response, which no codec accepts as valid.
type Middleware struct {
	next http.Handler
	plan *plan
	ctr  counters
}

// NewMiddleware wraps next with the given fault plan.
func NewMiddleware(next http.Handler, f Faults) *Middleware {
	return &Middleware{next: next, plan: newPlan(f)}
}

// Counts reports the faults injected so far.
func (m *Middleware) Counts() Counts { return m.ctr.counts() }

func (m *Middleware) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch m.plan.roll() {
	case faultLatency:
		m.ctr.latencies.Add(1)
		t := time.NewTimer(m.plan.f.Latency)
		defer t.Stop()
		select {
		case <-req.Context().Done():
			return
		case <-t.C:
		}
	case faultHang:
		m.ctr.hangs.Add(1)
		<-req.Context().Done()
		return
	case faultError:
		m.ctr.errs.Add(1)
		http.Error(w, "chaos: injected fault", http.StatusInternalServerError)
		return
	case faultReset:
		m.ctr.resets.Add(1)
		// The sanctioned way to hard-close the connection mid-exchange.
		panic(http.ErrAbortHandler)
	case faultTruncate:
		m.ctr.truncates.Add(1)
		rec := httptest.NewRecorder()
		m.next.ServeHTTP(rec, req)
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		body := rec.Body.Bytes()
		w.WriteHeader(rec.Code)
		if len(body) > 1 {
			w.Write(body[:len(body)/2])
		}
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		// Cut the connection so the half-written body cannot be mistaken
		// for a complete response.
		panic(http.ErrAbortHandler)
	}
	m.next.ServeHTTP(w, req)
}
