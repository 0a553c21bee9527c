// Package jobs is the async job subsystem behind plmserve's /jobs
// endpoints: a bulk predict or interpret request is submitted with
// POST /jobs, answered 202 immediately, and polled with GET /jobs/{id}
// while a bounded worker pool chews through it on the same fast paths the
// synchronous endpoints use (the shard's load-aware PredictBatch; the
// region-cached closed-form extraction for interpret jobs). A
// HarvestPool-scale workload stops holding a connection open for the whole
// harvest — the wire cost of a bulk job becomes one submit plus a few
// polls.
//
//	POST /jobs      {"op":"predict"|"interpret","xs":[[...],...]}
//	                -> 202 {"id":"job-1","status":"queued"}
//	GET  /jobs/{id} -> {"id","op","status","n",...results...}
//
// The job store is bounded: finished jobs are evicted oldest-first to
// admit new ones, and when the store is full of unfinished work the submit
// is refused with 503 — backpressure instead of an unbounded queue.
//
// Results page and stream (see stream.go): GET /jobs/{id}?offset=O&limit=L
// answers just that slice of the results, and a client that negotiated the
// binary codec receives them as a sequence of float frames — one frame per
// chunk, written and read incrementally — so a million-instance harvest
// never materializes one giant response body in RAM on either side.
// Submissions ride the negotiated codec too: a binary POST /jobs carries
// the probes as one frame with the op named by the X-PLM-Job-Op header.
package jobs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/wire"
)

// Status is the lifecycle state of an async job.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Op names accepted by Submit. A census job sweeps probes drawn around the
// submitted instances through the white-box closed-form path, populating
// whatever region store sits behind it (the RAM cache, or the disk atlas) —
// the async pre-warming half of the persistent region atlas.
const (
	OpPredict   = "predict"
	OpInterpret = "interpret"
	OpCensus    = "census"
)

// ErrBacklogFull is returned by Submit when the bounded store holds only
// unfinished jobs — the server is saturated and the caller should retry.
var ErrBacklogFull = errors.New("jobs: backlog full")

// Region is one harvested locally linear region in an interpret job's
// result: the probe that produced it and the region classifier's logits
// relative to class 0 (the closed form OpenAPI recovers, exact per the
// paper's Theorem 2).
type Region struct {
	Probe []float64   `json:"probe"`
	RelW  [][]float64 `json:"rel_w"`
	RelB  []float64   `json:"rel_b"`
}

// View is the externally visible snapshot of a job, also its wire form.
type View struct {
	ID     string `json:"id"`
	Op     string `json:"op"`
	Status Status `json:"status"`
	N      int    `json:"n"`
	Error  string `json:"error,omitempty"`
	// Probs holds a predict job's per-instance probabilities.
	Probs [][]float64 `json:"probs,omitempty"`
	// Regions holds an interpret job's harvested regions — one per distinct
	// locally linear region among the submitted instances, not one per
	// instance: the dedup is the point of the closed form.
	Regions []Region `json:"regions,omitempty"`
	// Census holds a census job's sweep summary; the swept regions
	// themselves live in the region store the sweep populated.
	Census *eval.SweepReport `json:"census,omitempty"`
	// Total and Offset describe the result window on paginated responses
	// (GET /jobs/{id}?offset&limit): Total is the full result count, Offset
	// where this page starts. Absent on unpaginated (legacy) fetches.
	Total  int `json:"total,omitempty"`
	Offset int `json:"offset,omitempty"`
}

// job is the internal mutable record behind a View.
type job struct {
	id string
	op string
	xs []mat.Vec
	// n is a census job's probe budget; seed its deterministic RNG seed,
	// derived from the submission sequence number so a replayed submission
	// order sweeps identical probes.
	n    int
	seed int64

	mu      sync.Mutex
	status  Status
	err     string
	probs   [][]float64
	regions []Region
	census  *eval.SweepReport
}

func (j *job) view() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return View{
		ID: j.id, Op: j.op, Status: j.status, N: len(j.xs),
		Error: j.err, Probs: j.probs, Regions: j.regions, Census: j.census,
	}
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed
}

// Runner owns the bounded job store and worker pool. It is safe for
// concurrent use.
type Runner struct {
	model plm.Model
	// white answers interpret jobs; nil refuses them (a server routing only
	// to remote backends has no white-box side to extract from).
	white plm.RegionModel

	// StreamRows caps the probability rows per streamed binary result
	// frame (0: defaultStreamRows). Small values exist for tests that want
	// to force multi-frame streams.
	StreamRows int

	// wireStats and maxBody are adopted from the hosting server at Mount
	// time, so job payloads count into the same /stats wire seam and obey
	// the same body cap as /predict and /batch. Both are safe when the
	// runner is used unmounted: wire.Stats methods are nil-safe and a zero
	// maxBody means wire.DefaultMaxBody.
	wireStats *wire.Stats
	maxBody   int64

	capacity int
	queue    chan *job

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, oldest first, for eviction
	seq   int64
	// evicted counts finished jobs displaced to admit new ones.
	evicted int64

	// censusDone/censusTotal track sweep progress across all census jobs —
	// the census_progress fraction in the /stats atlas section.
	censusDone  atomic.Int64
	censusTotal atomic.Int64

	// meanRunNS is a recency-weighted mean of job run durations, behind the
	// Retry-After hint on 503 submits.
	durMu     sync.Mutex
	meanRunNS float64
}

// retryAfterAlpha weights the published mean job run time toward recent
// completions — the same discount the API aggregator applies to latency.
const retryAfterAlpha = 0.3

// observeRun folds one completed job's run duration into the mean.
func (r *Runner) observeRun(d time.Duration) {
	r.durMu.Lock()
	defer r.durMu.Unlock()
	ns := float64(d.Nanoseconds())
	if r.meanRunNS == 0 {
		r.meanRunNS = ns
		return
	}
	r.meanRunNS += retryAfterAlpha * (ns - r.meanRunNS)
}

// RetryAfter is the backpressure hint a saturated runner publishes on 503
// submits: the mean recent job completion time rounded up to whole seconds
// and floored at one second — come back after roughly one job's worth of
// work has had a chance to drain.
func (r *Runner) RetryAfter() time.Duration {
	r.durMu.Lock()
	mean := r.meanRunNS
	r.durMu.Unlock()
	secs := int64(math.Ceil(mean / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// NewRunner builds a runner over the served model with a bounded store of
// capacity jobs and the given number of pool workers. white, when non-nil,
// is the white-box side interpret jobs extract from — plmserve passes a
// local copy of its model; a purely remote shard passes nil.
func NewRunner(model plm.Model, white plm.RegionModel, capacity, workers int) (*Runner, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("jobs: store capacity %d, need > 0", capacity)
	}
	if workers <= 0 {
		workers = 1
	}
	r := &Runner{
		model:    model,
		white:    white,
		capacity: capacity,
		queue:    make(chan *job, capacity),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		go r.work()
	}
	return r, nil
}

// Submit validates and enqueues a job, returning its id. When the store is
// full, the oldest finished job is evicted to make room; if every stored
// job is still queued or running, ErrBacklogFull is returned.
func (r *Runner) Submit(op string, xs []mat.Vec) (string, error) {
	return r.SubmitN(op, xs, 0)
}

// SubmitN is Submit with a census probe budget: a census job sweeps n
// probes drawn around the submitted anchor instances (n <= 0: 64 per
// anchor). Other ops ignore n.
func (r *Runner) SubmitN(op string, xs []mat.Vec, n int) (string, error) {
	switch op {
	case OpPredict:
	case OpInterpret, OpCensus:
		if r.white == nil {
			return "", fmt.Errorf("jobs: %s jobs need a local white-box replica, this server has none", op)
		}
	default:
		return "", fmt.Errorf("jobs: unknown op %q (want %q, %q or %q)", op, OpPredict, OpInterpret, OpCensus)
	}
	if len(xs) == 0 {
		return "", fmt.Errorf("jobs: empty job")
	}
	for i, x := range xs {
		if len(x) != r.model.Dim() {
			return "", fmt.Errorf("jobs: item %d length %d != %d", i, len(x), r.model.Dim())
		}
	}
	if op == OpCensus && n <= 0 {
		n = 64 * len(xs)
	}
	j, err := r.admit(op, xs, n)
	if err != nil {
		return "", err
	}
	if op == OpCensus {
		r.censusTotal.Add(int64(j.n))
	}
	r.queue <- j // capacity == store capacity, never blocks
	return j.id, nil
}

// CensusProgress returns the probes swept so far and the total submitted
// across all census jobs.
func (r *Runner) CensusProgress() (done, total int64) {
	return r.censusDone.Load(), r.censusTotal.Load()
}

// admit reserves a store slot and registers a new queued job under the
// lock; the channel send stays in Submit, outside it.
func (r *Runner) admit(op string, xs []mat.Vec, n int) (*job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) >= r.capacity && !r.evictOneLocked() {
		return nil, ErrBacklogFull
	}
	r.seq++
	j := &job{id: fmt.Sprintf("job-%d", r.seq), op: op, xs: xs, n: n, seed: r.seq, status: StatusQueued}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	return j, nil
}

// evictOneLocked removes the oldest finished job; callers hold r.mu.
func (r *Runner) evictOneLocked() bool {
	for i, id := range r.order {
		j, ok := r.jobs[id]
		if !ok || !j.terminal() {
			continue
		}
		delete(r.jobs, id)
		r.order = append(r.order[:i], r.order[i+1:]...)
		r.evicted++
		return true
	}
	return false
}

// Get returns a snapshot of the job, or ok=false when it is unknown —
// never submitted, or already evicted.
func (r *Runner) Get(id string) (View, bool) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// Evicted returns how many finished jobs have been displaced.
func (r *Runner) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// work is one pool worker: pull, run, record, time.
func (r *Runner) work() {
	for j := range r.queue {
		j.mu.Lock()
		j.status = StatusRunning
		j.mu.Unlock()
		var (
			probs   [][]float64
			regions []Region
			census  *eval.SweepReport
			err     error
		)
		start := time.Now()
		switch j.op {
		case OpPredict:
			probs, err = r.runPredict(j.xs)
		case OpInterpret:
			regions, err = r.runInterpret(j.xs)
		case OpCensus:
			census, err = r.runCensus(j)
		}
		r.observeRun(time.Since(start))
		j.finish(probs, regions, census, err)
	}
}

// finish records a job's outcome under its lock.
func (j *job) finish(probs [][]float64, regions []Region, census *eval.SweepReport, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.status = StatusFailed
		j.err = err.Error()
		return
	}
	j.status = StatusDone
	j.probs = probs
	j.regions = regions
	j.census = census
}

// runPredict answers the bulk batch on the served model's fast path — for
// a shard that is the load-aware backend fan-out, for a bare model the
// batched GEMM forward.
func (r *Runner) runPredict(xs []mat.Vec) ([][]float64, error) {
	ys, err := plm.PredictAll(r.model, xs)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(ys))
	for i, y := range ys {
		out[i] = y
	}
	return out, nil
}

// runInterpret harvests the exact locally linear regions of the submitted
// instances from the white-box replica: batched activation patterns, one
// closed-form composition per distinct region (extract.HarvestExact rides
// openbox.ExtractAll), deduplicated per region.
func (r *Runner) runInterpret(xs []mat.Vec) ([]Region, error) {
	s, err := extract.HarvestExact(r.white, xs)
	if err != nil {
		return nil, err
	}
	harvested := s.Regions()
	out := make([]Region, len(harvested))
	for i, h := range harvested {
		view := Region{
			Probe: h.Probe,
			RelW:  make([][]float64, len(h.RelW)),
			RelB:  h.RelB,
		}
		for c, w := range h.RelW {
			view.RelW[c] = w
		}
		out[i] = view
	}
	return out, nil
}

// runCensus sweeps the job's probe budget through the white-box closed-form
// path, deterministically seeded from the submission sequence number, with
// cross-job progress folded into the runner's census counters.
func (r *Runner) runCensus(j *job) (*eval.SweepReport, error) {
	rng := rand.New(rand.NewSource(j.seed))
	last := 0
	rep, err := eval.SweepRegions(r.white, j.xs, j.n, rng, func(done int) {
		r.censusDone.Add(int64(done - last))
		last = done
	})
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// submitRequest is the JSON POST /jobs wire form. The binary form is one
// float frame of probes with the op named by the OpHeader request header
// (and, for census jobs, the probe budget by the NHeader header).
type submitRequest struct {
	Op string      `json:"op"`
	Xs [][]float64 `json:"xs"`
	// N is a census job's probe budget (0: 64 per submitted anchor).
	N int `json:"n,omitempty"`
}

// OpHeader names the job op on binary submissions, whose frame body has no
// room for an envelope field. Absent means predict, like the JSON form.
const OpHeader = "X-PLM-Job-Op"

// NHeader carries a census job's probe budget on binary submissions.
const NHeader = "X-PLM-Job-Probes"

// Mount attaches the async job endpoints to a prediction server and
// adopts its wire seam (codec stats, body cap).
func (r *Runner) Mount(s *api.Server) {
	r.wireStats = s.WireStats()
	r.maxBody = s.MaxBody
	s.Handle("POST /jobs", r.handleSubmit)
	s.Handle("GET /jobs/{id}", r.handleGet)
}

func (r *Runner) handleSubmit(w http.ResponseWriter, req *http.Request) {
	ex := wire.NewExchange(req, r.wireStats, r.maxBody)
	var body submitRequest
	if ex.BinaryIn() {
		rows, err := ex.ReadMat("xs")
		if err != nil {
			ex.Error(w, wire.DecodeStatus(err), fmt.Errorf("jobs: decode request: %w", err))
			return
		}
		body = submitRequest{Op: req.Header.Get(OpHeader), Xs: rows}
		if v := req.Header.Get(NHeader); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				ex.Error(w, http.StatusBadRequest, fmt.Errorf("jobs: bad %s %q", NHeader, v))
				return
			}
			body.N = n
		}
	} else if err := ex.ReadJSON(&body); err != nil {
		ex.Error(w, wire.DecodeStatus(err), fmt.Errorf("jobs: decode request: %w", err))
		return
	}
	if body.Op == "" {
		body.Op = OpPredict
	}
	xs := make([]mat.Vec, len(body.Xs))
	for i, x := range body.Xs {
		xs[i] = mat.Vec(x)
	}
	id, err := r.SubmitN(body.Op, xs, body.N)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrBacklogFull) {
			status = http.StatusServiceUnavailable
			// Tell the shedding client when to come back: one mean job's
			// worth of drain time, in the standard header.
			w.Header().Set("Retry-After",
				strconv.FormatInt(int64(r.RetryAfter()/time.Second), 10))
		}
		ex.Error(w, status, err)
		return
	}
	// The acknowledgement is pure metadata — JSON in every codec pairing.
	ex.WriteJSON(w, http.StatusAccepted, View{ID: id, Op: body.Op, Status: StatusQueued, N: len(xs)})
}

func (r *Runner) handleGet(w http.ResponseWriter, req *http.Request) {
	ex := wire.NewExchange(req, r.wireStats, r.maxBody)
	view, ok := r.Get(req.PathValue("id"))
	if !ok {
		ex.Error(w, http.StatusNotFound, fmt.Errorf("jobs: unknown job %q", req.PathValue("id")))
		return
	}
	window, err := parseWindow(req)
	if err != nil {
		ex.Error(w, http.StatusBadRequest, err)
		return
	}
	if ex.BinaryOut() {
		r.streamView(w, ex, view, window)
		return
	}
	if window.present {
		view = paginate(view, window)
	}
	ex.WriteJSON(w, http.StatusOK, view)
}

// headerSafe makes an error message safe to carry in a response header.
func headerSafe(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, s)
}
