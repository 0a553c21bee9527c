package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mat"
	"repro/internal/openbox"
	"repro/internal/plm"
	"repro/internal/sample"
)

// workload is one fixed-work traffic mix. ops = ceil(rate × --seconds),
// never fewer than minOps: the op list depends only on the arguments,
// never on how fast the machine happens to be.
type workload struct {
	name      string
	d         int     // input dimension (28×28 or 8×8 synthetic digits)
	interpret bool    // true: OpenAPI interpretations; false: /v1/batch forwards
	clients   int     // closed-loop clients
	rate      float64 // ops per second of --seconds
	minOps    int
}

// batchRows is the row count of one batch-784 request.
const batchRows = 256

// batchPool is how many distinct requests a batch run cycles through.
const batchPool = 16

// exactTol is the L1 tolerance between a recovered D_c and the white-box
// closed form that the repository's exactness tests accept.
const exactTol = 1e-4

// The rates make a run last about --seconds on a 2-vCPU AVX-512 machine.
// interpret-784 keeps at least 12 ops so its tail statistic has ten
// samples beyond it.
var workloads = []workload{
	// The paper's unit on its image architecture; the per-round LU factor
	// at n=785 dominates.
	{name: "interpret-784", d: 784, interpret: true, clients: 1, rate: 0.5, minOps: 12},
	// The same loop at d=64: factors are tiny, so the stack around the
	// solver dominates.
	{name: "interpret-64", d: 64, interpret: true, clients: 1, rate: 50, minOps: 100},
	// Wide concurrent batches through router and shard; no interpreter.
	{name: "batch-784", d: 784, interpret: false, clients: 2, rate: 145, minOps: 100},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) ops(seconds int) int {
	n := int(math.Ceil(w.rate * float64(seconds)))
	return max(n, w.minOps)
}

// inputs is everything a run feeds the program, generated from the seed.
type inputs struct {
	ref *openbox.PLNN // in-process copy of the served model, for checking

	// interpret workloads: instance, predicted class and sampler seed per op.
	xs      []mat.Vec
	classes []int
	seeds   []int64

	// batch workload: the request pool and each request's reference digest.
	reqs [][]mat.Vec
	want []uint64

	warm []mat.Vec // warm-up probe set
}

// mix derives a per-op seed from the workload seed and the op index.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

// digits renders n synthetic digits of side size from rng.
func digits(rng *rand.Rand, size, n int) []mat.Vec {
	per := (n + 9) / 10
	return dataset.SyntheticDigits(rng, dataset.SynthConfig{Size: size, PerClass: per}).X[:n]
}

func makeInputs(w workload, seed int64, n int) *inputs {
	in := &inputs{ref: &openbox.PLNN{Net: newNetwork(w.d)}}
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Sqrt(float64(w.d)))
	if w.interpret {
		in.xs = digits(rng, side, n)
		in.classes = make([]int, n)
		in.seeds = make([]int64, n)
		for i, x := range in.xs {
			in.classes[i] = in.ref.Predict(x).ArgMax()
			in.seeds[i] = mix(seed, i)
		}
		in.warm = sample.NewHypercube(in.xs[0], 1).SampleN(rng, w.d+2)
		return in
	}
	rows := digits(rng, side, batchPool*batchRows)
	for i := 0; i < batchPool; i++ {
		req := rows[i*batchRows : (i+1)*batchRows]
		ys, _ := in.ref.PredictBatch(req)
		in.reqs = append(in.reqs, req)
		in.want = append(in.want, digest(ys))
	}
	in.warm = in.reqs[0]
	return in
}

// digest hashes the exact bits of a batch answer.
func digest(ys []mat.Vec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, y := range ys {
		for _, v := range y {
			u := math.Float64bits(v)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// deployment is one set-up: the stack plus the benchmark's dialed clients.
type deployment struct {
	st      *stack
	clients []*api.Client
	models  []plm.Model // what each client loop calls: the client, or its decorator
	sites   []*site
	rounds  [][]round // traced interpret runs: the current op's probe rounds per client
}

// deploy builds the stack, dials the clients and warms every connection
// and first-use buffer with the workload's own request shape.
func deploy(w workload, in *inputs, tr *tracer) (*deployment, error) {
	st, err := newStack(w.d, tr)
	if err != nil {
		return nil, err
	}
	dp := &deployment{st: st, rounds: make([][]round, w.clients)}
	for i := 0; i < w.clients; i++ {
		var s *site
		if tr != nil {
			s = &site{}
		}
		c, err := st.dial(s)
		if err != nil {
			st.close()
			return nil, err
		}
		var m plm.Model = c
		if tr != nil {
			var record func(xs, ys []mat.Vec)
			if w.interpret {
				record = func(xs, ys []mat.Vec) {
					dp.rounds[i] = append(dp.rounds[i], round{first: xs[0], ys: ys})
				}
			}
			m, err = tr.wrapModel(c, spanClient, s, record)
			if err != nil {
				st.close()
				return nil, err
			}
		}
		dp.clients = append(dp.clients, c)
		dp.models = append(dp.models, m)
		dp.sites = append(dp.sites, s)
	}
	for _, m := range dp.models {
		for _, xs := range [][]mat.Vec{in.warm, in.warm[:1]} {
			if _, err := m.(batcher).PredictBatch(xs); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	for i := range dp.rounds {
		dp.rounds[i] = nil
	}
	return dp, nil
}

func (dp *deployment) close() {
	dp.st.close()
	for _, c := range dp.clients {
		c.HTTPClient().CloseIdleConnections()
	}
}

// counts are the program's own counters over one pass. For one seed they
// must repeat exactly, traced or not.
type counts struct {
	Queries    int64 `json:"queries"`     // probes the router served
	Iterations int64 `json:"iterations"`  // Algorithm 1 rounds (interpret)
	RoundTrips int64 `json:"round_trips"` // benchmark client -> router requests
	BytesOut   int64 `json:"bytes_out"`   // request payload bytes the clients sent
	BytesIn    int64 `json:"bytes_in"`    // response payload bytes they read
}

// latency returns each op's latency in ms, +Inf for a failed op: a failed
// op misses any latency limit.
func (p *pass) latency() []float64 {
	out := slices.Clone(p.lat)
	for i, bad := range p.bad {
		if bad {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// counters snapshots the router's query count and the clients' wire
// counters (Iterations is filled in from the interpretations).
func (dp *deployment) counters() counts {
	c := counts{Queries: dp.st.router.Queries()}
	for _, cl := range dp.clients {
		wc := cl.WireCounts()
		c.RoundTrips += wc.BinaryRequests + wc.JSONRequests
		c.BytesOut += wc.BytesOut
		c.BytesIn += wc.BytesIn
	}
	return c
}

// pass is the outcome of running the op list once.
type pass struct {
	n       int
	lat     []float64 // measured ms per op
	bad     []bool    // ops that failed
	done    []float64 // s from the window's start to each op's completion
	peaks   []float64 // peak RSS (MiB) within each block of ops
	wall    time.Duration
	failed  int
	counts  counts
	allocMB float64 // heap bytes allocated during the pass, MB
	gcs     uint32
	balance []int64 // per-worker queries served during the pass
	errs    []string
	// inconsistent marks a pass whose counters disagree with each other.
	inconsistent bool
}

func (p *pass) fail(i int, err error) {
	p.failed++
	p.bad[i] = true
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
	}
}

// outcome is what an op left for the post-run check.
type outcome struct {
	err      error
	class    int
	features mat.Vec
	queries  int
	iters    int
	digest   uint64
}

// run executes the op list once on dp. The timed window covers the ops
// only; every output is checked after it closes. With a tracer, each op
// gets a root span, and shadow runs after each interpret op, outside it.
func run(w workload, in *inputs, dp *deployment, n int, tr *tracer, sh *shadow) *pass {
	p := &pass{n: n, lat: make([]float64, n), bad: make([]bool, n), done: make([]float64, n)}
	res := make([]outcome, n)
	before, wq0 := dp.counters(), dp.st.workerQueries()
	// Start the window from a collected heap returned to the OS, and restart
	// the peak-RSS record there, so set-up garbage shows in neither.
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var next atomic.Int64
	var wg sync.WaitGroup
	var peakMu sync.Mutex
	bs := blockSize(n)
	start := time.Now()
	for ci := range dp.models {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var opRef, parent ref
				var opStart time.Duration
				if tr != nil {
					opRef, opStart = tr.begin(ref{op: int64(i + 1)})
					parent = dp.sites[ci].set(opRef)
				}
				t0 := time.Now()
				res[i] = doOp(w, in, dp, ci, i, tr)
				p.lat[i] = float64(time.Since(t0)) / 1e6
				p.done[i] = time.Since(start).Seconds()
				if (i+1)%bs == 0 || i == n-1 {
					peakMu.Lock()
					p.peaks = append(p.peaks, peakRSSMB())
					resetPeakRSS()
					peakMu.Unlock()
				}
				if tr != nil {
					tr.finish(spanOp, opRef, ref{}, opStart, 0, false)
					dp.sites[ci].set(parent)
					if w.interpret {
						sh.replay(w, in, i, dp.rounds[ci], res[i])
						dp.rounds[ci] = nil
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	p.gcs = ms1.NumGC - ms0.NumGC

	after := dp.counters()
	p.counts = counts{
		Queries:    after.Queries - before.Queries,
		RoundTrips: after.RoundTrips - before.RoundTrips,
		BytesOut:   after.BytesOut - before.BytesOut,
		BytesIn:    after.BytesIn - before.BytesIn,
	}
	for i, q := range dp.st.workerQueries() {
		p.balance = append(p.balance, q-wq0[i])
	}
	check(w, in, p, res)
	return p
}

// doOp runs op i on client ci.
func doOp(w workload, in *inputs, dp *deployment, ci, i int, tr *tracer) outcome {
	m, c := dp.models[ci], dp.clients[ci]
	if !w.interpret {
		ys, err := m.(batcher).PredictBatch(in.reqs[i%batchPool])
		if err == nil {
			err = c.Err()
		}
		if err != nil {
			c.ResetErr()
			return outcome{err: err}
		}
		return outcome{digest: digest(ys)}
	}
	o := core.New(core.Config{Seed: in.seeds[i]})
	var interp *plm.Interpretation
	var err error
	if tr != nil {
		s := dp.sites[ci]
		parent := s.get()
		me, start := tr.begin(parent)
		s.set(me)
		interp, err = o.Interpret(m, in.xs[i], in.classes[i])
		s.set(parent)
		tr.finish(spanInterpret, me, parent, start, 0, false)
	} else {
		interp, err = o.Interpret(m, in.xs[i], in.classes[i])
	}
	if cerr := c.Err(); cerr != nil {
		// The client answered some probe with a fabricated uniform
		// distribution: whatever the solver made of it is not a result.
		c.ResetErr()
		return outcome{err: fmt.Errorf("transport: %w", cerr)}
	}
	if err != nil {
		return outcome{err: err}
	}
	return outcome{class: interp.Class, features: interp.Features, queries: interp.Queries, iters: interp.Iterations}
}

// check verifies every op's output against the in-process white box and
// folds the per-op counts into the pass.
func check(w workload, in *inputs, p *pass, res []outcome) {
	var interpQueries int64
	for i, r := range res {
		if r.err != nil {
			p.fail(i, r.err)
			continue
		}
		if !w.interpret {
			if r.digest != in.want[i%batchPool] {
				p.fail(i, errors.New("batch answer differs from the in-process forward"))
			}
			continue
		}
		interpQueries += int64(r.queries)
		p.counts.Iterations += int64(r.iters)
		dist, err := eval.L1Dist(in.ref, in.xs[i], &plm.Interpretation{Class: r.class, Features: r.features})
		if err == nil && !(dist <= exactTol) {
			err = fmt.Errorf("D_c is %g (L1) from the closed form", dist)
		}
		if err != nil {
			p.fail(i, err)
		}
	}
	if w.interpret && interpQueries != p.counts.Queries {
		p.inconsistent = true
		p.errs = append(p.errs, fmt.Sprintf("interpreters counted %d queries, router served %d", interpQueries, p.counts.Queries))
	}
}

// blocks is how many consecutive slices of the op list the robust
// per-run statistics are taken over.
const blocks = 10

func blockSize(n int) int { return max(1, (n+blocks-1)/blocks) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS restarts the kernel's VmHWM record at the current RSS.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
