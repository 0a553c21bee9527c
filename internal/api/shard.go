package api

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
)

// Shard routes prediction traffic across N backends serving the same model.
// A backend is either a local in-process replica or a remote plmserve
// instance (see Backend); the router cannot tell them apart, which is the
// point — the paper's API setting assumes only that something answers
// probability queries.
//
// A /batch request is split into chunks and dispatched load-aware: every
// eligible backend pulls the next chunk off a shared queue as soon as it
// finishes the previous one, so fast backends serve more of the batch and a
// backend busy with another caller's work naturally takes less
// (least-outstanding-work, tracked by per-backend inflight counters). Each
// chunk writes only its own out[lo:hi] segment, so the merge preserves
// submission order with no reordering and no lock.
//
// Failures fail over instead of failing the batch: a backend whose chunk
// errors is quarantined with exponential backoff and its chunk re-enqueued
// for the remaining backends. Only when every backend has failed does the
// batch error — partial answers would silently corrupt an interpretation's
// linear system, so it is all of the batch or none of it. A quarantined
// backend rejoins after its backoff expires and a Healthy() recovery probe
// succeeds; a failed probe doubles the backoff. Caller cancellation is not
// failure: a chunk that dies because its context ended never quarantines
// the backend that was running it.
//
// The backend set is dynamic: AddBackend and RemoveBackend change it while
// traffic flows (the registry drives them as workers join, leave and
// expire). Removal cancels the backend's in-flight chunk attempts and
// drains those chunks back onto the shared queue for the survivors.
//
// With Hedge enabled, a chunk that sits on one backend past an adaptive
// threshold — a multiple of that backend's EWMA chunk round-trip time — is
// speculatively re-enqueued so another backend races it. The first answer
// wins and is merged (bit-identical either way — the backends are replicas);
// the loser's attempt is cancelled and its late answer, success or error,
// is discarded without touching quarantine accounting.
//
// Backends must be interchangeable (copies of one model, or remotes serving
// it): the split is then invisible to callers and sharded predictions are
// bit-identical to single-backend ones. A Shard is safe for concurrent use
// when its backends are.
type Shard struct {
	cfg ShardConfig

	// mu guards the copy-on-write backend set and the adopted model shape.
	// Readers snapshot the slice under mu and then work lock-free on it;
	// writers build a fresh slice and swap it in.
	mu       sync.Mutex
	backends []*backendState
	dim      int
	classes  int

	// next rotates dispatch's seed order, so equally loaded backends take
	// turns at a batch's first chunk.
	next atomic.Int64
	// now is the clock, swappable in tests.
	now func() time.Time
	// afterFunc schedules hedge timers, swappable in tests.
	afterFunc func(d time.Duration, f func()) *time.Timer
}

// ShardConfig tunes the router. The zero value gives sensible defaults.
type ShardConfig struct {
	// MinChunk is the smallest chunk handed to one backend: below it,
	// dispatch overhead beats the batched forward's GEMM win. The default
	// derives it from the row width, so a chunk carries at least
	// minChunkBytes of input (64 rows at d = 64, 6 at d = 784, never fewer
	// than 4).
	MinChunk int
	// ChunkFactor is how many chunks each backend would get of an evenly
	// split batch (default 2). More chunks re-balance better when backends
	// run at different speeds; fewer keep per-chunk batches wide.
	ChunkFactor int
	// QuarantineBase is the first backoff after a backend failure
	// (default 250ms); each further failure doubles it up to QuarantineMax
	// (default 30s).
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// ProbeTimeout bounds each quarantine-recovery Healthy probe
	// (default 2s) so a dead remote cannot stall the caller that happened
	// to trigger the probe.
	ProbeTimeout time.Duration
	// Hedge enables speculative re-dispatch of slow chunks.
	Hedge bool
	// HedgeFactor multiplies a backend's EWMA chunk RTT to get its hedge
	// threshold (default 3): a chunk outstanding for 3x the backend's
	// typical round trip is presumed stuck and raced elsewhere.
	HedgeFactor float64
	// HedgeMin floors the hedge threshold (default 25ms) so cold backends
	// (no RTT history yet) and micro-RTT fleets don't hedge every chunk.
	HedgeMin time.Duration
}

func (c *ShardConfig) setDefaults() {
	if c.ChunkFactor <= 0 {
		c.ChunkFactor = 2
	}
	if c.QuarantineBase <= 0 {
		c.QuarantineBase = 250 * time.Millisecond
	}
	if c.QuarantineMax <= 0 {
		c.QuarantineMax = 30 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.HedgeFactor <= 0 {
		c.HedgeFactor = 3
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
}

// rttAlpha is the EWMA smoothing factor for per-backend chunk round-trip
// times — same constant the aggregator uses for its flush window.
const rttAlpha = 0.3

// backendState is the router's bookkeeping around one backend.
type backendState struct {
	b     Backend
	stats BackendStats

	queries  atomic.Int64 // probes answered successfully
	inflight atomic.Int64 // probes currently outstanding
	retries  atomic.Int64 // chunks re-dispatched away after this backend failed them
	failures atomic.Int64 // failed calls (chunks, recovery probes)

	hedges       atomic.Int64 // hedges launched because this backend sat on a chunk
	hedgeWins    atomic.Int64 // hedged chunks this backend answered first
	hedgeCancels atomic.Int64 // attempts discarded because another copy won

	// removed flips when the backend leaves the set (RemoveBackend, registry
	// expiry). Workers bound to a pre-removal snapshot check it and stop
	// pulling; its in-flight attempts are cancelled and drained back.
	removed atomic.Bool

	// probing single-flights the quarantine-recovery Healthy() probe: a
	// remote ping can take up to its deadline, so exactly one caller pays
	// it (and doubles the backoff on failure) while everyone else keeps
	// treating the backend as quarantined.
	probing atomic.Bool

	mu               sync.Mutex
	quarantinedUntil time.Time
	backoff          time.Duration

	// rttEWMA smooths successful chunk round-trip times (nanoseconds);
	// zero until the first sample. Feeds the hedge threshold.
	rttMu   sync.Mutex
	rttEWMA float64

	// attempts registers the cancel funcs of in-flight chunk attempts so
	// RemoveBackend can cut them loose immediately instead of waiting for
	// transport timeouts. A registration-order slice: it holds at most one
	// entry per in-flight chunk, and cancelling in a deterministic order
	// keeps the drain reproducible.
	attemptMu  sync.Mutex
	attemptSeq int64
	attempts   []chunkAttempt
}

// chunkAttempt is one live chunk attempt's handle in a backend's registry.
type chunkAttempt struct {
	id     int64
	cancel context.CancelFunc
}

// quarantined reports whether the backend is sidelined at time now.
func (st *backendState) quarantined(now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.quarantinedUntil.IsZero() && now.Before(st.quarantinedUntil)
}

// observeRTT folds one successful chunk round trip into the backend's EWMA,
// seeding with the first sample like the aggregator's flush window.
func (st *backendState) observeRTT(d time.Duration) {
	st.rttMu.Lock()
	defer st.rttMu.Unlock()
	if st.rttEWMA == 0 {
		st.rttEWMA = float64(d)
		return
	}
	st.rttEWMA = rttAlpha*float64(d) + (1-rttAlpha)*st.rttEWMA
}

// rtt returns the current EWMA chunk round trip, zero before any sample.
func (st *backendState) rtt() time.Duration {
	st.rttMu.Lock()
	defer st.rttMu.Unlock()
	return time.Duration(st.rttEWMA)
}

// registerAttempt records a live chunk attempt's cancel func and returns
// its handle.
func (st *backendState) registerAttempt(cancel context.CancelFunc) int64 {
	st.attemptMu.Lock()
	defer st.attemptMu.Unlock()
	st.attemptSeq++
	st.attempts = append(st.attempts, chunkAttempt{id: st.attemptSeq, cancel: cancel})
	return st.attemptSeq
}

// unregisterAttempt drops a finished attempt's handle.
func (st *backendState) unregisterAttempt(id int64) {
	st.attemptMu.Lock()
	defer st.attemptMu.Unlock()
	for i, a := range st.attempts {
		if a.id == id {
			st.attempts = append(st.attempts[:i], st.attempts[i+1:]...)
			return
		}
	}
}

// takeAttempts detaches the live attempt set under the lock; the caller
// cancels outside it (a cancel fires dispatch bookkeeping — never run it
// while holding attemptMu).
func (st *backendState) takeAttempts() []chunkAttempt {
	st.attemptMu.Lock()
	defer st.attemptMu.Unlock()
	taken := st.attempts
	st.attempts = nil
	return taken
}

// cancelAttempts cancels every in-flight chunk attempt — the removal
// drain — in registration order.
func (st *backendState) cancelAttempts() {
	for _, a := range st.takeAttempts() {
		a.cancel()
	}
}

// NewShard builds a router over local in-process replicas — the original
// single-machine topology, kept as the convenience constructor. All
// replicas must agree on input dimensionality and class count.
func NewShard(replicas []plm.Model) (*Shard, error) {
	return NewShardBackends(LocalBackends(replicas, "replica"), ShardConfig{})
}

// NewShardBackends builds a router over the given backends, local or
// remote. All backends must agree on input dimensionality and class count.
func NewShardBackends(backends []Backend, cfg ShardConfig) (*Shard, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("api: shard needs at least one backend")
	}
	s := NewDynamicShard(cfg)
	for i, b := range backends {
		if err := s.AddBackend(b); err != nil {
			return nil, fmt.Errorf("api: backend %d: %w", i, err)
		}
	}
	return s, nil
}

// NewDynamicShard builds an initially empty router whose backend set is
// populated at runtime — the registry's control-plane entry point. Until
// the first backend joins, Dim and Classes report 0 and every prediction
// fails with "no backends"; the first AddBackend fixes the model shape all
// later members must match.
func NewDynamicShard(cfg ShardConfig) *Shard {
	cfg.setDefaults()
	return &Shard{cfg: cfg, now: time.Now, afterFunc: time.AfterFunc}
}

// snapshot returns the current backend set. The slice is copy-on-write:
// safe to range over lock-free, never mutated in place.
func (s *Shard) snapshot() []*backendState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backends
}

// AddBackend joins a backend to the set while traffic flows. The first
// backend fixes the shard's model shape; later ones must match it. A
// backend whose Stats().Name matches an existing member replaces it (the
// old member is removed and drained first) — how a restarted worker
// re-registering under its old address rejoins cleanly.
func (s *Shard) AddBackend(b Backend) error {
	bs := b.Stats()
	if bs.Dim <= 0 || bs.Classes < 2 {
		return fmt.Errorf("api: backend %s advertises implausible shape %dx%d", bs.Name, bs.Dim, bs.Classes)
	}
	replaced, err := s.adopt(&backendState{b: b, stats: bs})
	if err != nil {
		return err
	}
	if replaced != nil {
		replaced.removed.Store(true)
		replaced.cancelAttempts()
	}
	return nil
}

// adopt installs the new member under the membership lock, returning the
// same-named member it displaced, if any. The caller drains the displaced
// member outside the lock.
func (s *Shard) adopt(st *backendState) (*backendState, error) {
	bs := st.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dim == 0 && len(s.backends) == 0 {
		s.dim, s.classes = bs.Dim, bs.Classes
	} else if bs.Dim != s.dim || bs.Classes != s.classes {
		return nil, fmt.Errorf("api: backend %s is %dx%d, shard serves %dx%d",
			bs.Name, bs.Dim, bs.Classes, s.dim, s.classes)
	}
	var replaced *backendState
	next := make([]*backendState, 0, len(s.backends)+1)
	for _, old := range s.backends {
		if old.stats.Name == bs.Name {
			replaced = old
			continue
		}
		next = append(next, old)
	}
	s.backends = append(next, st)
	return replaced, nil
}

// RemoveBackend drops the named backend from the set, cancelling its
// in-flight chunk attempts so dispatch drains those chunks back onto the
// shared queue for the survivors. Reports whether the backend was a member.
func (s *Shard) RemoveBackend(name string) bool {
	gone := s.detach(name)
	if gone == nil {
		return false
	}
	gone.removed.Store(true)
	gone.cancelAttempts()
	return true
}

// detach removes the named member under the membership lock; the caller
// drains it outside.
func (s *Shard) detach(name string) *backendState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var gone *backendState
	next := make([]*backendState, 0, len(s.backends))
	for _, st := range s.backends {
		if st.stats.Name == name && gone == nil {
			gone = st
			continue
		}
		next = append(next, st)
	}
	s.backends = next
	return gone
}

// Replicas returns the number of backends behind the router.
func (s *Shard) Replicas() int { return len(s.snapshot()) }

// ReplicaQueries returns the number of probes each backend has answered.
func (s *Shard) ReplicaQueries() []int64 {
	backends := s.snapshot()
	out := make([]int64, len(backends))
	for i, st := range backends {
		out[i] = st.queries.Load()
	}
	return out
}

// BackendStatus returns the live per-backend breakdown /stats reports. A
// remote backend that cannot currently be reached shows state "unreachable"
// instead of being omitted (or worse, panicking a reach-through): the
// router knows the backend exists even while it cannot serve.
func (s *Shard) BackendStatus() []BackendStatus {
	now := s.now()
	backends := s.snapshot()
	out := make([]BackendStatus, len(backends))
	for i, st := range backends {
		state := "ok"
		if st.quarantined(now) {
			state = "unreachable"
		}
		out[i] = BackendStatus{
			Kind:         st.stats.Kind,
			Name:         st.stats.Name,
			Queries:      st.queries.Load(),
			Inflight:     st.inflight.Load(),
			Retries:      st.retries.Load(),
			Failures:     st.failures.Load(),
			Hedges:       st.hedges.Load(),
			HedgeWins:    st.hedgeWins.Load(),
			HedgeCancels: st.hedgeCancels.Load(),
			State:        state,
		}
		// Wire reach-through: a remote backend exposes its client-side
		// codec traffic so /stats shows what each hop costs on the wire,
		// mirroring how cache counters reach through the response cache.
		if wc, ok := st.b.(wireCounter); ok {
			counts := wc.WireCounts()
			out[i].Wire = &counts
		}
	}
	return out
}

// Dim reports the shard's model input dimensionality (0 while a dynamic
// shard is still empty).
func (s *Shard) Dim() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dim
}

// Classes reports the shard's model class count (0 while a dynamic shard
// is still empty).
func (s *Shard) Classes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.classes
}

// quarantine sidelines a backend after a failure, doubling its backoff up
// to the configured maximum.
func (s *Shard) quarantine(st *backendState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.backoff == 0 {
		st.backoff = s.cfg.QuarantineBase
	} else if st.backoff < s.cfg.QuarantineMax {
		st.backoff *= 2
		if st.backoff > s.cfg.QuarantineMax {
			st.backoff = s.cfg.QuarantineMax
		}
	}
	st.quarantinedUntil = s.now().Add(st.backoff)
}

// eligible returns the backends allowed to serve right now. A backend whose
// quarantine has expired is given a Healthy() recovery probe under the
// configured ProbeTimeout — exactly one caller runs it (single-flight;
// concurrent callers keep treating the backend as quarantined): success
// clears its record, failure re-quarantines it with a doubled backoff. When
// everything is quarantined the full set is returned as a last resort — a
// batch that might succeed beats one refused outright, and a success clears
// the survivor's quarantine.
func (s *Shard) eligible(ctx context.Context) []*backendState {
	now := s.now()
	backends := s.snapshot()
	out := make([]*backendState, 0, len(backends))
	for _, st := range backends {
		st.mu.Lock()
		until := st.quarantinedUntil
		st.mu.Unlock()
		switch {
		case until.IsZero():
			out = append(out, st)
		case now.Before(until):
			// Still sidelined.
		case !st.probing.CompareAndSwap(false, true):
			// Another caller's recovery probe is in flight.
		default:
			pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
			healthy := st.b.Healthy(pctx)
			cancel()
			if healthy {
				st.mu.Lock()
				st.quarantinedUntil = time.Time{}
				st.backoff = 0
				st.mu.Unlock()
			} else if ctx.Err() == nil {
				st.failures.Add(1)
				s.quarantine(st)
			}
			st.probing.Store(false)
			if healthy {
				out = append(out, st)
			}
		}
	}
	if len(out) == 0 {
		return backends
	}
	return out
}

// PredictErr answers one prediction as a one-row batch: the same load-aware
// dispatch, failover and quarantine accounting as PredictBatch. When every
// backend has failed, the error surfaces — the HTTP server turns it into a
// 5xx instead of fabricating an answer.
func (s *Shard) PredictErr(x mat.Vec) (mat.Vec, error) {
	return s.PredictErrCtx(context.Background(), x)
}

// PredictErrCtx is PredictErr under a caller context: a probe that dies
// because the context ended fails the call without quarantining the
// backend — a dead caller is not a dead backend.
func (s *Shard) PredictErrCtx(ctx context.Context, x mat.Vec) (mat.Vec, error) {
	ys, err := s.PredictBatchCtx(ctx, []mat.Vec{x})
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// Predict is PredictErr behind the errorless plm.Model surface: when every
// backend fails it degrades to the uniform distribution, the same contract
// Client.Predict honours when its remote is gone. Servers should prefer
// PredictErr so a total outage answers 5xx, not fabricated probabilities.
func (s *Shard) Predict(x mat.Vec) mat.Vec {
	p, err := s.PredictErr(x)
	if err != nil {
		classes := s.Classes()
		if classes == 0 {
			return nil
		}
		out := make(mat.Vec, classes)
		return out.Fill(1 / float64(classes))
	}
	return p
}

// clearQuarantine wipes a backend's failure record after a success — a
// last-resort call that got through means the backend is back.
func (s *Shard) clearQuarantine(st *backendState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.quarantinedUntil.IsZero() {
		st.quarantinedUntil = time.Time{}
		st.backoff = 0
	}
}

// minChunkBytes is the input a default-sized chunk carries at least. A
// chunk costs one dispatch whatever its size, so at d = 64 a 67-row probe
// split four ways paid two sequential waves per backend (~0.5 ms of a
// 1.45 ms round) for chunks the forward finishes in microseconds.
const minChunkBytes = 32 << 10

// minChunk is the chunk floor for rows of width d: MinChunk if set, else
// enough rows to carry minChunkBytes of float64 input, and at least 4.
func (s *Shard) minChunk(d int) int {
	if s.cfg.MinChunk > 0 {
		return s.cfg.MinChunk
	}
	return max(4, (minChunkBytes/8+d-1)/max(d, 1))
}

// span is one contiguous chunk of a batch.
type span struct {
	lo, hi int
}

// chunkSpans splits n instances of width d into roughly ChunkFactor chunks
// per worker, each at least the chunk floor (minChunk) wide — small enough
// to re-balance across uneven backends, wide enough that every chunk still
// rides the batched forward. On batches too small for that many floor-wide
// chunks, the floor yields to an even per-worker split so every backend
// still participates.
func (s *Shard) chunkSpans(n, d, workers int) []span {
	chunk := (n + workers*s.cfg.ChunkFactor - 1) / (workers * s.cfg.ChunkFactor)
	if floor := s.minChunk(d); chunk < floor {
		chunk = floor
		if even := (n + workers - 1) / workers; even < chunk {
			chunk = even
		}
	}
	spans := make([]span, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		spans = append(spans, span{lo: lo, hi: hi})
	}
	return spans
}

// PredictBatch splits the batch into chunks and dispatches them load-aware
// across the eligible backends, merging the answers in submission order.
// A backend whose chunk fails is quarantined, its chunk re-enqueued for the
// others, and the batch still succeeds — bit-identical to a single healthy
// backend answering alone. The batch errors only when every backend has
// dropped out with work still pending.
func (s *Shard) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return s.PredictBatchCtx(context.Background(), xs)
}

// PredictBatchCtx is PredictBatch under a caller context: cancellation
// reaches every in-flight chunk and stops the whole fan-out; the batch then
// fails with the context's error and no backend is quarantined for it.
func (s *Shard) PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	elig := s.eligible(ctx)
	if len(elig) == 0 {
		return nil, fmt.Errorf("api: shard has no backends")
	}
	spans := s.chunkSpans(len(xs), len(xs[0]), len(elig))
	out := make([]mat.Vec, len(xs))
	if err := s.dispatch(ctx, xs, out, spans, s.seedOrder(elig)); err != nil {
		return nil, err
	}
	return out, nil
}

// seedOrder returns elig least-loaded first — the order dispatch seeds its
// chunks in — scanning from a rotating start so backends with equal loads
// take turns: a one-chunk batch goes to the least-loaded backend, and
// successive ones round-robin across an idle fleet.
func (s *Shard) seedOrder(elig []*backendState) []*backendState {
	start := int(s.next.Add(1)-1) % len(elig)
	order := make([]*backendState, len(elig))
	loads := make(map[*backendState]int64, len(elig))
	for i := range order {
		order[i] = elig[(start+i)%len(elig)]
		loads[order[i]] = order[i].inflight.Load()
	}
	slices.SortStableFunc(order, func(a, b *backendState) int { return cmp.Compare(loads[a], loads[b]) })
	return order
}

// attemptChunk runs one chunk on one backend: inflight accounting and RTT
// observation, no routing policy — dispatch layers its quarantine and claim
// rules on top.
func (s *Shard) attemptChunk(ctx context.Context, st *backendState, xs []mat.Vec) ([]mat.Vec, error) {
	n := int64(len(xs))
	st.inflight.Add(n)
	start := s.now()
	ys, err := st.b.PredictBatch(ctx, xs)
	rtt := s.now().Sub(start)
	st.inflight.Add(-n)
	if err == nil && len(ys) != len(xs) {
		err = fmt.Errorf("api: backend %s answered %d of %d probes", st.stats.Name, len(ys), len(xs))
	}
	if err == nil {
		st.observeRTT(rtt)
	}
	return ys, err
}

// hedgeThreshold is how long a chunk may sit on this backend before a
// speculative copy races it elsewhere: HedgeFactor times the backend's
// EWMA chunk round trip, floored at HedgeMin (which alone governs cold
// backends with no history — including ones that have only ever hung).
func (s *Shard) hedgeThreshold(st *backendState) time.Duration {
	thr := time.Duration(s.cfg.HedgeFactor * float64(st.rtt()))
	if thr < s.cfg.HedgeMin {
		thr = s.cfg.HedgeMin
	}
	return thr
}

// chunkTask is one chunk's shared dispatch state: up to two copies of it
// circulate (the original and at most one hedge), whichever answers first
// claims the merge, and every other attempt is cancelled and discarded.
type chunkTask struct {
	lo, hi int
	// failed counts distinct genuine backend failures of this chunk; at
	// len(elig) the batch is out of backends and fails.
	failed atomic.Int64
	// claimed flips when a copy's answer has won the merge; late copies
	// (queued or in flight) see it and stand down.
	claimed atomic.Bool
	// hedged flips when the one allowed hedge copy has been enqueued.
	hedged atomic.Bool

	mu      sync.Mutex
	cancels []context.CancelFunc
}

func (t *chunkTask) addCancel(c context.CancelFunc) {
	t.mu.Lock()
	t.cancels = append(t.cancels, c)
	t.mu.Unlock()
}

// cancelAll cancels every live attempt on this task — called by the winner
// after the merge, so losers stop burning their backends.
func (t *chunkTask) cancelAll() {
	t.mu.Lock()
	cs := t.cancels
	t.cancels = nil
	t.mu.Unlock()
	for _, c := range cs {
		c()
	}
}

// taskRef is one circulating copy of a task; hedge marks the speculative
// duplicate so the winner can be credited as a hedge win.
type taskRef struct {
	t     *chunkTask
	hedge bool
}

// dispatch runs the load-aware chunk schedule. Each backend is seeded with
// one chunk, in elig's order (seedOrder: least loaded first) — every
// backend participates, and on same-speed backends the split degenerates
// to the even one — while the remaining chunks sit on a
// shared queue that workers pull from as they finish, so faster (or less
// loaded) backends absorb more of the tail. A worker whose chunk genuinely
// fails re-enqueues it for the others and leaves the batch; pending counts
// chunks not yet merged and active counts workers still pulling — when the
// last worker leaves with work pending, the batch has run out of backends
// and fails.
//
// With hedging on, each original attempt arms a timer at the backend's
// hedge threshold; firing enqueues one speculative copy of the task for
// the other workers. The first copy to answer claims the merge (claimed
// CAS), cancels the other attempt, and only the claim increments query
// counters — so hedging never double-counts and the merged bytes are
// bit-identical whichever copy wins. A cancelled loser's error is absorbed
// without quarantine: losing a race is not being down.
//
// The queue holds at most two live refs per task (the original and one
// hedge — a failure consumes its ref before re-enqueueing), so capacity
// 2*len(spans) means no enqueue ever blocks.
//
// dispatch returns as soon as the batch is decided, while a hedge loser or
// a worker still running a chunk of a failed batch may go on reading xs.
// So each worker holds the batch's rows (heldRows) until it exits: a
// server's recycled decode blocks go back only after the last attempt
// that could read them has returned.
func (s *Shard) dispatch(ctx context.Context, xs []mat.Vec, out []mat.Vec, spans []span, elig []*backendState) error {
	tasks := make([]*chunkTask, len(spans))
	for i, sp := range spans {
		tasks[i] = &chunkTask{lo: sp.lo, hi: sp.hi}
	}
	jobs := make(chan taskRef, 2*len(spans))
	for _, t := range tasks[min(len(tasks), len(elig)):] {
		jobs <- taskRef{t: t}
	}
	var (
		pending atomic.Int64
		active  atomic.Int64
		done    = make(chan struct{})
		once    sync.Once
		errMu   sync.Mutex
		first   error
	)
	pending.Store(int64(len(tasks)))
	active.Store(int64(len(elig)))
	recordErr := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if first == nil {
			first = err
		}
	}
	finish := func(err error) {
		if err != nil {
			recordErr(err)
		}
		once.Do(func() { close(done) })
	}
	enqueue := func(ref taskRef) {
		select {
		case jobs <- ref:
		default:
			// Unreachable under the two-refs-per-task invariant; never
			// block a worker on bookkeeping if it breaks.
		}
	}
	rows := heldRows(ctx)
	for i, st := range elig {
		var seed *chunkTask
		if i < len(tasks) {
			seed = tasks[i]
		}
		rows.Retain()
		go func(st *backendState, seed *chunkTask) {
			defer rows.Release()
			defer func() {
				if active.Add(-1) == 0 && pending.Load() > 0 {
					finish(fmt.Errorf("api: all %d backends failed with %d chunks pending",
						len(elig), pending.Load()))
				}
			}()
			// run answers one task copy; false means this worker is done —
			// batch finished, backend failed or was removed, or the caller
			// is gone.
			run := func(ref taskRef) bool {
				t := ref.t
				if t.claimed.Load() {
					// Raced copy of an already-merged chunk: drop it and
					// keep pulling.
					return true
				}
				actx, cancel := context.WithCancel(ctx)
				t.addCancel(cancel)
				id := st.registerAttempt(cancel)
				var hedgeTimer *time.Timer
				if s.cfg.Hedge && !ref.hedge && len(elig) > 1 {
					hedgeTimer = s.afterFunc(s.hedgeThreshold(st), func() {
						if t.claimed.Load() || !t.hedged.CompareAndSwap(false, true) {
							return
						}
						st.hedges.Add(1)
						enqueue(taskRef{t: t, hedge: true})
					})
				}
				ys, err := s.attemptChunk(actx, st, xs[t.lo:t.hi])
				if hedgeTimer != nil {
					hedgeTimer.Stop()
				}
				st.unregisterAttempt(id)
				// Read the attempt context's state before releasing it:
				// after cancel() below, actx.Err() is always non-nil and
				// could no longer distinguish "cancelled by the winner or a
				// removal" from "the backend genuinely failed".
				attemptCancelled := actx.Err() != nil
				cancel()
				if err != nil {
					if ctx.Err() != nil {
						// The caller's deadline or cancellation: stop the
						// whole batch with its error, quarantine nobody.
						finish(ctx.Err())
						return false
					}
					if t.claimed.Load() {
						// Lost a hedge race and the winner's cancel tripped
						// this attempt (or it failed moot): not a failure.
						st.hedgeCancels.Add(1)
						return true
					}
					if attemptCancelled && !st.removed.Load() {
						// Cancelled without a claim or a removal — the
						// winner is merging right now (claim precedes
						// cancelAll, but this error can arrive between
						// them). Same absolution as a claimed loss.
						st.hedgeCancels.Add(1)
						return true
					}
					if st.removed.Load() {
						// Removal drain: the backend left the fleet with
						// this chunk in flight. Give the chunk back to the
						// survivors and retire the worker — no quarantine,
						// the backend isn't failing, it's gone.
						st.retries.Add(1)
						enqueue(taskRef{t: t, hedge: ref.hedge})
						return false
					}
					st.failures.Add(1)
					s.quarantine(st)
					if t.failed.Add(1) >= int64(len(elig)) {
						// Every backend has had its shot at this chunk.
						finish(fmt.Errorf("api: chunk [%d:%d) failed on %d backends: %w",
							t.lo, t.hi, t.failed.Load(), err))
						return false
					}
					st.retries.Add(1)
					enqueue(taskRef{t: t, hedge: ref.hedge})
					return false
				}
				if !t.claimed.CompareAndSwap(false, true) {
					// Answered correctly but second: the other copy already
					// merged bit-identical bytes. Discard without counting
					// queries — the batch saw this chunk once.
					st.hedgeCancels.Add(1)
					return true
				}
				copy(out[t.lo:t.hi], ys)
				t.cancelAll()
				s.clearQuarantine(st)
				st.queries.Add(int64(t.hi - t.lo))
				if ref.hedge {
					st.hedgeWins.Add(1)
				}
				if pending.Add(-1) == 0 {
					finish(nil)
					return false
				}
				return true
			}
			if seed != nil && !run(taskRef{t: seed}) {
				return
			}
			for {
				if st.removed.Load() {
					return
				}
				select {
				case <-done:
					return
				case ref := <-jobs:
					if !run(ref) {
						return
					}
				}
			}
		}(st, seed)
	}
	<-done
	errMu.Lock()
	defer errMu.Unlock()
	return first
}

var _ plm.Model = (*Shard)(nil)
var _ plm.BatchPredictor = (*Shard)(nil)
var _ ctxBatchPredictor = (*Shard)(nil)
