package api

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
)

// AggregatorConfig tunes cross-caller query batching. The zero value gives
// usable defaults.
type AggregatorConfig struct {
	// MaxBatch flushes the pending queue as soon as it holds this many
	// probes, without waiting for the window to elapse. Default 256.
	MaxBatch int
	// Window bounds how long the earliest pending probe waits before the
	// queue is flushed regardless of size. It trades a little latency per
	// probe for fewer round trips; keep it well below the service's own
	// round-trip time budget. Default 2ms. With Adaptive set it only seeds
	// the window until the first flush has been timed.
	Window time.Duration
	// Adaptive replaces the fixed Window with one tracked from observation:
	// the aggregator keeps an exponentially weighted moving average of each
	// flush's round-trip time and sets the wait window to WindowFraction of
	// it, clamped to [MinWindow, MaxWindow]. A local in-process model (RTT
	// in microseconds) then flushes near-instantly, while a slow remote
	// (RTT in tens of milliseconds) batches aggressively — no hand tuning
	// per deployment. See DESIGN.md §7.
	Adaptive bool
	// WindowFraction is the fraction of the RTT estimate used as the wait
	// window when Adaptive is set. Default 0.5.
	WindowFraction float64
	// MinWindow and MaxWindow bound the adaptive window. Defaults 50µs and
	// 20ms.
	MinWindow time.Duration
	MaxWindow time.Duration
}

func (c *AggregatorConfig) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.Adaptive {
		if c.WindowFraction <= 0 {
			c.WindowFraction = 0.5
		}
		if c.MinWindow <= 0 {
			c.MinWindow = 50 * time.Microsecond
		}
		if c.MaxWindow <= 0 {
			c.MaxWindow = 20 * time.Millisecond
		}
		if c.MinWindow > c.MaxWindow {
			c.MinWindow = c.MaxWindow
		}
	}
}

// Aggregator coalesces probe batches from many concurrent callers into
// single PredictBatch round trips against the wrapped model. Interpretation
// jobs running in parallel — a core.Pool's workers, say — each submit their
// own d+k sample-set probes; the aggregator holds them briefly and ships one
// combined batch, so the per-job round trips of a naive pool collapse into
// one wire exchange per "wave" of concurrent work.
//
// A flush is triggered by whichever comes first: the pending queue reaching
// MaxBatch probes, or the oldest pending probe having waited Window. Each
// caller receives exactly its own results, in the order it submitted them,
// so callers cannot observe each other. The wrapped model's responses are a
// pure function of the input, hence interpretations computed through an
// aggregator are bit-identical to unaggregated ones.
//
// An Aggregator is safe for concurrent use. Close it when the concurrent
// jobs finish; a closed aggregator degrades to a transparent pass-through,
// so late stragglers still get answers.
type Aggregator struct {
	inner plm.Model
	cfg   AggregatorConfig

	mu      sync.Mutex
	pending []*aggWaiter
	count   int
	timer   *time.Timer
	closed  bool

	flushes atomic.Int64
	probes  atomic.Int64

	// window is the current wait window in nanoseconds. Fixed configs set
	// it once; adaptive configs rewrite it after every timed flush.
	window atomic.Int64
	// rttEWMA tracks the smoothed flush round-trip time in nanoseconds
	// (0 until the first flush completes). Guarded by rttMu, not mu: RTT
	// updates happen during flushes, outside the queue lock.
	rttMu   sync.Mutex
	rttEWMA float64

	errMu sync.Mutex
	err   error
}

// aggWaiter is one caller's submission: its probes, the slot its results
// land in, and the latch the caller blocks on until some flush serves it.
type aggWaiter struct {
	xs   []mat.Vec
	out  []mat.Vec
	err  error
	done chan struct{}
}

// NewAggregator wraps inner with a query aggregator. inner should offer a
// batch endpoint (plm.BatchPredictor) for the coalescing to save round
// trips; without one the aggregator still works but each probe reaches the
// model individually.
func NewAggregator(inner plm.Model, cfg AggregatorConfig) *Aggregator {
	cfg.setDefaults()
	a := &Aggregator{inner: inner, cfg: cfg}
	a.window.Store(int64(cfg.Window))
	return a
}

// Dim forwards to the wrapped model.
func (a *Aggregator) Dim() int { return a.inner.Dim() }

// Classes forwards to the wrapped model.
func (a *Aggregator) Classes() int { return a.inner.Classes() }

// Flushes returns the number of batches shipped to the wrapped model so
// far — the aggregator's round-trip count when the model is remote. Probes
// forwarded individually because the model offers no batch endpoint are
// counted in Probes but never as flushes.
func (a *Aggregator) Flushes() int64 { return a.flushes.Load() }

// Probes returns the total number of probes served across all flushes.
func (a *Aggregator) Probes() int64 { return a.probes.Load() }

// CurrentWindow returns the wait window currently in force: the configured
// Window for fixed setups, the latest RTT-derived value for adaptive ones.
func (a *Aggregator) CurrentWindow() time.Duration {
	return time.Duration(a.window.Load())
}

// RTT returns the smoothed flush round-trip time an adaptive aggregator has
// observed so far (0 before the first flush, or when Adaptive is off).
func (a *Aggregator) RTT() time.Duration {
	a.rttMu.Lock()
	defer a.rttMu.Unlock()
	return time.Duration(a.rttEWMA)
}

// observeRTT folds one flush's measured round trip into the EWMA and derives
// the next wait window from it.
func (a *Aggregator) observeRTT(rtt time.Duration) {
	w := time.Duration(a.cfg.WindowFraction * a.updateEWMA(rtt))
	if w < a.cfg.MinWindow {
		w = a.cfg.MinWindow
	}
	if w > a.cfg.MaxWindow {
		w = a.cfg.MaxWindow
	}
	a.window.Store(int64(w))
}

// updateEWMA folds one measured round trip into the smoothed RTT and
// returns the new value.
func (a *Aggregator) updateEWMA(rtt time.Duration) float64 {
	// alpha 0.3: reacts to a genuine latency shift within a few flushes
	// while one slow outlier moves the window under a third of the way.
	const alpha = 0.3
	a.rttMu.Lock()
	defer a.rttMu.Unlock()
	if a.rttEWMA == 0 {
		a.rttEWMA = float64(rtt)
	} else {
		a.rttEWMA = alpha*float64(rtt) + (1-alpha)*a.rttEWMA
	}
	return a.rttEWMA
}

// Err returns the first batch error encountered via Predict, if any
// (PredictBatch reports errors directly). Mirrors Client.Err.
func (a *Aggregator) Err() error {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	return a.err
}

// ResetErr clears the sticky error.
func (a *Aggregator) ResetErr() {
	a.errMu.Lock()
	a.err = nil
	a.errMu.Unlock()
}

func (a *Aggregator) record(err error) {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	if a.err == nil {
		a.err = err
	}
}

// Predict implements plm.Model: the probe joins the pending queue and the
// call blocks until a flush serves it. Batch errors degrade to the uniform
// distribution and are recorded stickily, like Client.Predict.
func (a *Aggregator) Predict(x mat.Vec) mat.Vec {
	out, err := a.submit([]mat.Vec{x})
	if err != nil {
		a.record(err)
		u := make(mat.Vec, a.inner.Classes())
		return u.Fill(1 / float64(a.inner.Classes()))
	}
	return out[0]
}

// PredictBatch implements plm.BatchPredictor: the whole batch joins the
// pending queue as one unit and is answered in submission order.
func (a *Aggregator) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	return a.submit(xs)
}

// Close flushes whatever is pending and turns the aggregator into a
// pass-through. Safe to call more than once.
func (a *Aggregator) Close() {
	a.mu.Lock()
	a.closed = true
	batch := a.takeLocked()
	a.mu.Unlock()
	a.flush(batch)
}

// submit enqueues one caller's probes and blocks until they are answered.
//
// Liveness invariant: at every mu release, a nonempty pending queue has an
// armed timer, so every waiter is collected by a size-triggered take, a
// timer flush, or Close. A stale timer firing after its batch was already
// taken either finds the queue empty (no-op) or flushes a newer batch a
// little early (harmless).
func (a *Aggregator) submit(xs []mat.Vec) ([]mat.Vec, error) {
	w, batch, closed := a.enqueue(xs)
	if closed {
		// A flush is one shipped batch. Without a batch endpoint the
		// pass-through probes go out individually, so counting a flush here
		// would overstate how well the run batched.
		a.probes.Add(int64(len(xs)))
		if _, ok := a.inner.(plm.BatchPredictor); ok {
			a.flushes.Add(1)
		}
		return plm.PredictAll(a.inner, xs)
	}
	a.flush(batch)
	<-w.done
	return w.out, w.err
}

// enqueue adds the caller's probes to the pending queue under the lock,
// returning a full batch when this submission tripped the size trigger and
// closed=true when the aggregator is a pass-through. The flush itself and
// the wait both happen outside the lock, in submit.
func (a *Aggregator) enqueue(xs []mat.Vec) (w *aggWaiter, batch []*aggWaiter, closed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, nil, true
	}
	w = &aggWaiter{xs: xs, done: make(chan struct{})}
	a.pending = append(a.pending, w)
	a.count += len(xs)
	if a.count >= a.cfg.MaxBatch {
		batch = a.takeLocked()
	} else if a.timer == nil {
		a.timer = time.AfterFunc(a.CurrentWindow(), a.timerFlush)
	}
	return w, batch, false
}

// takeLocked detaches the entire pending queue. Callers hold mu.
func (a *Aggregator) takeLocked() []*aggWaiter {
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	batch := a.pending
	a.pending = nil
	a.count = 0
	return batch
}

func (a *Aggregator) timerFlush() {
	a.mu.Lock()
	batch := a.takeLocked()
	a.mu.Unlock()
	a.flush(batch)
}

// flush ships one combined batch and demuxes the answers back to each
// waiter in submission order. It runs outside mu, so new submissions queue
// up for the next flush while this round trip is in flight — that overlap
// is where a pool's solve-one-while-probing-others concurrency comes from.
func (a *Aggregator) flush(batch []*aggWaiter) {
	if len(batch) == 0 {
		return
	}
	n := 0
	for _, w := range batch {
		n += len(w.xs)
	}
	xs := make([]mat.Vec, 0, n)
	for _, w := range batch {
		xs = append(xs, w.xs...)
	}
	// Same rule as the pass-through: a flush is counted only when the
	// probes actually ship as one batch round trip.
	a.probes.Add(int64(n))
	if _, ok := a.inner.(plm.BatchPredictor); ok {
		a.flushes.Add(1)
	}
	start := time.Now()
	ys, err := plm.PredictAll(a.inner, xs)
	if a.cfg.Adaptive && err == nil {
		a.observeRTT(time.Since(start))
	}
	off := 0
	for _, w := range batch {
		if err != nil {
			w.err = err
		} else {
			w.out = ys[off : off+len(w.xs)]
		}
		off += len(w.xs)
		close(w.done)
	}
}

// DialAggregated dials a served model and wraps the client in an
// aggregator: the one-call path for pointing a pool of interpreters at a
// remote API. Close the aggregator when the jobs finish; the client is also
// returned for error inspection (Client.Err).
func DialAggregated(baseURL string, httpc *http.Client, retries int, cfg AggregatorConfig) (*Aggregator, *Client, error) {
	client, err := Dial(baseURL, httpc, retries)
	if err != nil {
		return nil, nil, err
	}
	return NewAggregator(client, cfg), client, nil
}

var _ plm.Model = (*Aggregator)(nil)
var _ plm.BatchPredictor = (*Aggregator)(nil)
