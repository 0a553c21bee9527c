// Command e2ebench is the repository's end-to-end benchmark. It assembles
// the serving stack in process — two workers built like `plmserve -model`
// behind a router built like `plmserve -backend w1,w2` — and drives it with
// a fixed, seeded list of operations over loopback HTTP:
//
//	interpret-784  core.OpenAPI.Interpret on 28×28 synthetic digits
//	interpret-64   the same on 8×8 digits
//	batch-784      two closed-loop clients posting 256-row /v1/batch requests
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload interpret-64 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the op list
// untraced and then traced, and reports per-layer metrics from the spans.
// The last line of standard output is one JSON object; README.md in this
// directory lists every metric and which layer should move it.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/mat"
)

// setups is how many times a --trace 0 run builds the whole deployment;
// setup_s is the median.
const setups = 9

// minTailBlock is the smallest block whose own tail percentile (ten
// samples beyond it) is at least the median.
const minTailBlock = 20

// minBlockOps is the smallest block whose throughput is steady enough to
// take a median over; runs with smaller blocks report whole-window
// throughput.
const minBlockOps = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line. Correct says every output was checked and the
// run's own accounting held: counters agree with each other, with the
// untraced pass and with earlier runs, and the shadow replay matched. An op
// whose output is wrong is a failed op: it is counted in Failed and lowers
// verified_ratio, and its error is printed as a "# FAIL" line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("e2ebench: ")
	var (
		name    = flag.String("workload", "", "interpret-784, interpret-64 or batch-784")
		seed    = flag.Int64("seed", 1, "workload seed: instances, request rows and sampler seeds derive from it")
		seconds = flag.Int("seconds", 30, "sizes the fixed op list (ops = rate × seconds)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build", "directory for the count record and span dumps")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("need --seconds >= 1 and --trace 0 or 1")
	}
	n := w.ops(*seconds)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# e2ebench workload=%s seed=%d ops=%d clients=%d trace=%d\n", w.name, *seed, n, w.clients, *trace)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d kernel_tier=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), mat.ActiveKernelTier(), runtime.Version())

	var rep report
	var c counts
	if *trace == 0 {
		rep, c = endToEnd(out, w, *seed, n)
	} else {
		rep, c = perLayer(out, w, *seed, n, *outDir)
	}
	if rep.Correct {
		if err := checkCounts(*outDir, w, *seed, n, c); err != nil {
			fmt.Fprintln(out, "# FAIL:", err)
			rep.Correct = false
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(out, string(line))
}

// endToEnd sets up several times, runs the op list once with tracing off
// and reports the user-visible metrics.
func endToEnd(out io.Writer, w workload, seed int64, n int) (report, counts) {
	var setupS []float64
	var in *inputs
	var dp *deployment
	for k := 0; k < setups; k++ {
		if dp != nil {
			dp.close()
			runtime.GC()
		}
		t0 := time.Now()
		in = makeInputs(w, seed, n)
		var err error
		if dp, err = deploy(w, in, nil); err != nil {
			log.Fatal(err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	p := run(w, in, dp, n, nil, nil)
	dp.close()

	lat := p.latency()
	p50 := median(lat)
	tail, tailNote := ptail(lat)
	ok := n - p.failed
	fmt.Fprintf(out, "# setup_s median of %d set-ups: %v\n", setups, setupS)
	fmt.Fprintf(out, "# ptail_ms is %s\n", tailNote)
	fmt.Fprintf(out, "# fail_ratio = failed/attempted = %d/%d (reported as verified_ratio = 1 - fail_ratio)\n", p.failed, n)
	printFailures(out, p)
	rates := blockRates(p)
	fmt.Fprintf(out, "# ops/s by block of %d ops: %.4g\n", blockSize(n), rates)
	fmt.Fprintf(out, "# peak RSS MiB by block: %.4g\n", p.peaks)
	opsPerS := float64(ok) / p.wall.Seconds()
	if blockSize(n) >= minBlockOps {
		opsPerS = median(rates) * float64(ok) / float64(n)
	}
	return report{
		Correct: !p.inconsistent, Attempted: n, Failed: p.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupS), "s"},
			"ops_per_s":      {opsPerS, "1/s"},
			"p50_ms":         {p50, "ms"},
			"ptail_ms":       {tail, "ms"},
			"queries_per_op": {float64(p.counts.Queries) / float64(n), "count"},
			"verified_ratio": {float64(ok) / float64(n), "ratio"},
			"peak_rss_mb":    {median(p.peaks), "MB"},
		},
	}, p.counts
}

// perLayer runs the op list untraced (the baseline for the tracing
// overhead and the runtime counters), then traced on a fresh deployment,
// and derives the per-layer metrics from the spans.
func perLayer(out io.Writer, w workload, seed int64, n int, outDir string) (report, counts) {
	in := makeInputs(w, seed, n)
	dp, err := deploy(w, in, nil)
	if err != nil {
		log.Fatal(err)
	}
	base := run(w, in, dp, n, nil, nil)
	dp.close()
	runtime.GC()

	tr := newTracer()
	if dp, err = deploy(w, in, tr); err != nil {
		log.Fatal(err)
	}
	sh := &shadow{}
	p := run(w, in, dp, n, tr, sh)
	spans := tr.take()
	dp.close()

	correct := !base.inconsistent && !p.inconsistent
	if base.counts != p.counts {
		fmt.Fprintf(out, "# FAIL: traced counts %+v differ from untraced %+v\n", p.counts, base.counts)
		correct = false
	}
	if err := sh.err(); err != nil {
		fmt.Fprintln(out, "# FAIL:", err)
		correct = false
	}
	printFailures(out, base)
	printFailures(out, p)
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)), spans); err != nil {
		log.Fatal(err)
	}

	lt := summarize(spans)
	ops := float64(n)
	perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perRound := func(d time.Duration) float64 { return ratio(float64(d)/1e6, float64(sh.rounds)) }
	balance := ratio(float64(slices.Min(p.balance)), float64(slices.Max(p.balance)))
	useful := 0.0
	if w.interpret {
		useful = ratio(float64(w.d+extraChecks+1)*ops, float64(p.counts.Queries))
	}
	m := map[string]metric{
		"core.iterations_per_op":  {float64(p.counts.Iterations) / ops, "count"},
		"core.useful_query_ratio": {useful, "ratio"},
		"core.self_ms_per_op":     {perOp(lt.self[spanInterpret]), "ms"},
		"mat.factor_ms":           {perRound(sh.factor), "ms"},
		"mat.factor_gflops":       {ratio(sh.factorFlops, sh.factor.Seconds()) / 1e9, "GFLOP/s"},
		"mat.solve_ms":            {perRound(sh.solve), "ms"},
		"sample.ms_per_round":     {perRound(sh.sample), "ms"},
		"api.round_trips_per_op":  {float64(p.counts.RoundTrips) / ops, "count"},
		"api.probe_ms":            {perOp(lt.dur[spanClient]), "ms"},
		"api.client_codec_ms":     {perOp(lt.self[spanClient]), "ms"},
		"wire.bytes_out_per_op":   {float64(p.counts.BytesOut) / ops, "bytes"},
		"wire.bytes_in_per_op":    {float64(p.counts.BytesIn) / ops, "bytes"},
		"net.loopback_ms":         {perOp(lt.self[spanClientRT] + lt.self[spanBackendRT]), "ms"},
		"api.router_codec_ms":     {perOp(lt.self[spanRouter]), "ms"},
		"api.shard_self_ms":       {perOp(lt.self[spanShard]), "ms"},
		"api.chunks_per_request":  {ratio(float64(lt.calls[spanWorker]), float64(lt.calls[spanRouter])), "count"},
		"api.backend_balance":     {balance, "ratio"},
		"api.retries_per_op":      {float64(lt.failed[spanClientRT]+lt.failed[spanBackendRT]) / ops, "count"},
		"api.worker_codec_ms":     {perOp(lt.self[spanWorker]), "ms"},
		"nn.forward_ms":           {perOp(lt.dur[spanForward]), "ms"},
		"nn.rows_per_call":        {ratio(float64(lt.rows[spanForward]), float64(lt.calls[spanForward])), "count"},
		"nn.forward_share":        {ratio(float64(lt.forwardCover), float64(lt.opTime)), "ratio"},
		"mat.gemm_gflops":         {ratio(float64(lt.rows[spanForward])*forwardFlops(w.d), lt.dur[spanForward].Seconds()) / 1e9, "GFLOP/s"},
		"runtime.alloc_mb_per_op": {base.allocMB / ops, "MB"},
		"runtime.gc_per_op":       {float64(base.gcs) / ops, "count"},
		"trace.overhead_ratio":    {ratio(sum(p.lat), sum(base.lat)), "ratio"},
	}
	fmt.Fprintf(out, "# untraced op time %.1f ms, traced %.1f ms; %d spans kept in memory\n", sum(base.lat), sum(p.lat), len(spans))
	fmt.Fprintf(out, "# mat.* and sample.* replay each round's recorded probe set (%d rounds); GFLOP/s follow from shapes\n", sh.rounds)
	printShares(out, lt)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "# %-24s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return report{Correct: correct, Attempted: n, Failed: p.failed, Metrics: m}, p.counts
}

// forwardFlops is one row's multiply-adds through the d-256-128-100-10
// network, counted as 2 FLOPs each.
func forwardFlops(d int) float64 {
	sizes := layerSizes(d)
	f := 0.0
	for i := 0; i+1 < len(sizes); i++ {
		f += 2 * float64(sizes[i]*sizes[i+1])
	}
	return f
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest order statistic with at least ten
// samples beyond it, with its percentile and that count. Runs keep at least
// eleven ops; below that it falls back to the maximum.
func tailPercentile(xs []float64) (value, pct float64, beyond int) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// ptail is the tail latency and a note saying which percentile it is.
// With blocks of at least minTailBlock ops it is the median over the
// blocks of each block's tail, so one burst of interference from outside
// the process moves one block, not the result; otherwise it is the tail of
// the whole run.
func ptail(lat []float64) (float64, string) {
	n, bs := len(lat), blockSize(len(lat))
	if bs < minTailBlock {
		v, pct, beyond := tailPercentile(lat)
		return v, fmt.Sprintf("p%.1f of all %d ops (%d beyond it)", pct, n, beyond)
	}
	var tails []float64
	var pct float64
	var beyond int
	for lo := 0; lo < n; lo += bs {
		var v float64
		v, pct, beyond = tailPercentile(lat[lo:min(lo+bs, n)])
		tails = append(tails, v)
	}
	return median(tails), fmt.Sprintf("the median over %d blocks of each block's p%.1f (%d of %d ops beyond it)", len(tails), pct, beyond, bs)
}

// blockRates is each block's throughput: its ops over the time between
// the previous block's last completion and its own.
func blockRates(p *pass) []float64 {
	bs := blockSize(p.n)
	var out []float64
	prev := 0.0
	for lo := 0; lo < p.n; lo += bs {
		hi := min(lo+bs, p.n)
		end := slices.Max(p.done[:hi])
		out = append(out, float64(hi-lo)/(end-prev))
		prev = end
	}
	return out
}

func printFailures(out io.Writer, p *pass) {
	for _, e := range p.errs {
		fmt.Fprintln(out, "# FAIL:", e)
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkCounts is the fixed-work self-check: the program's counters for one
// seed must repeat exactly across runs of one build, traced or not. The
// first run of a build records them; every later run compares.
func checkCounts(outDir string, w workload, seed int64, n int, c counts) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(outDir, "counts", fmt.Sprintf("%s-seed%d-ops%d-%s.json", w.name, seed, n, hex.EncodeToString(sum[:6])))
	got, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != string(got) {
			return fmt.Errorf("counts %s differ from an earlier run of this build and seed: %s", got, prev)
		}
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, got, 0o644)
}
