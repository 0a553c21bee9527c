package repro

// One benchmark per table and figure of the paper, plus the ablations from
// DESIGN.md §3. Each benchmark regenerates (a scaled-down version of) the
// corresponding artifact and reports the headline metric via ReportMetric,
// so `go test -bench=. -benchmem` doubles as a smoke reproduction.

import (
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/interpret/gradient"
	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

var (
	benchOnce sync.Once
	benchW    *eval.Workbench
)

// benchWorkbench builds one small workbench shared by every benchmark.
func benchWorkbench(b *testing.B) *eval.Workbench {
	b.Helper()
	benchOnce.Do(func() {
		w, err := eval.NewWorkbench(eval.WorkbenchConfig{
			Dataset:  "fmnist",
			Size:     10,
			PerClass: 50,
			NNEpochs: 15,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchW = w
	})
	return benchW
}

func benchInstances(b *testing.B, w *eval.Workbench, n int) []mat.Vec {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	return w.Test.Subset(w.SampleTestInstances(rng, n), "bench").X
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTable1_TrainPLNN(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := dataset.SyntheticDigits(rng, dataset.SynthConfig{Size: 10, PerClass: 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		net := nn.New(r, data.Dim(), 32, 16, data.Classes())
		if _, err := net.Train(r, data.X, data.Y, nn.TrainConfig{Epochs: 5}); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(net.Accuracy(data.X, data.Y), "train-acc")
		}
	}
}

func BenchmarkTable1_TrainLMT(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := dataset.SyntheticDigits(rng, dataset.SynthConfig{Size: 10, PerClass: 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		tree, err := lmt.Train(r, data.X, data.Y, data.Classes(), lmt.Config{
			MinLeaf: 60, MaxDepth: 5, LogReg: lmt.LogRegConfig{Epochs: 30},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tree.Accuracy(data.X, data.Y), "train-acc")
		}
	}
}

// --- Figure 2 ----------------------------------------------------------------

func BenchmarkFigure2_ClassHeatmaps(b *testing.B) {
	w := benchWorkbench(b)
	o := core.New(core.Config{Seed: 4})
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure2(w, o, []int{0, 1}, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3 ----------------------------------------------------------------

func BenchmarkFigure3_FlipCurves(b *testing.B) {
	w := benchWorkbench(b)
	xs := benchInstances(b, w, 3)
	methods := []plm.Interpreter{
		core.New(core.Config{Seed: 6}),
		gradient.New(w.PLNN.Net, gradient.Config{Method: gradient.Saliency}),
		gradient.New(w.PLNN.Net, gradient.Config{Method: gradient.GradientInput}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := eval.Figure3(w.PLNN, methods, xs, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(curves[0].CPP[len(curves[0].CPP)-1], "openapi-final-cpp")
		}
	}
}

// --- Figure 4 ----------------------------------------------------------------

func BenchmarkFigure4_Consistency(b *testing.B) {
	w := benchWorkbench(b)
	rng := rand.New(rand.NewSource(7))
	ids := w.SampleTestInstances(rng, 4)
	pairs, err := eval.NeighbourPairs(w, ids)
	if err != nil {
		b.Fatal(err)
	}
	methods := []plm.Interpreter{
		core.New(core.Config{Seed: 8}),
		gradient.New(w.PLNN.Net, gradient.Config{Method: gradient.GradientInput}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := eval.Figure4(w.PLNN, methods, pairs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(curves[0].CS[0], "openapi-top-cs")
		}
	}
}

// --- Figures 5-7 -------------------------------------------------------------

func benchQuality(b *testing.B, metric func(eval.QualityRow) float64, unit string) {
	w := benchWorkbench(b)
	xs := benchInstances(b, w, 3)
	methods := []plm.Interpreter{core.New(core.Config{Seed: 9})}
	methods = append(methods, eval.StandardBaselines(1e-2, 10)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.SampleQuality(w.PLNN, methods, xs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(metric(rows[0]), "openapi-"+unit)
			b.ReportMetric(metric(rows[1]), "naive-"+unit)
		}
	}
}

func BenchmarkFigure5_RegionDifference(b *testing.B) {
	benchQuality(b, func(r eval.QualityRow) float64 { return r.AvgRD }, "rd")
}

func BenchmarkFigure6_WeightDifference(b *testing.B) {
	benchQuality(b, func(r eval.QualityRow) float64 { return r.WD.Mean }, "wd")
}

func BenchmarkFigure7_L1Dist(b *testing.B) {
	benchQuality(b, func(r eval.QualityRow) float64 { return r.L1.Mean }, "l1")
}

// --- Core algorithm scaling --------------------------------------------------

func benchPLNNModel(seed int64, d int) *openbox.PLNN {
	rng := rand.New(rand.NewSource(seed))
	return &openbox.PLNN{Net: nn.New(rng, d, 2*d, d, 4)}
}

func BenchmarkOpenAPI_Interpret_d16(b *testing.B) { benchInterpretDim(b, 16) }
func BenchmarkOpenAPI_Interpret_d64(b *testing.B) { benchInterpretDim(b, 64) }
func BenchmarkOpenAPI_Interpret_d128(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	benchInterpretDim(b, 128)
}

func benchInterpretDim(b *testing.B, d int) {
	model := benchPLNNModel(11, d)
	rng := rand.New(rand.NewSource(12))
	x := make(mat.Vec, d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	o := core.New(core.Config{Seed: 13})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp, err := o.Interpret(model, x, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(interp.Queries), "queries")
		}
	}
}

// --- Ablation A2: adaptive halving vs fixed r ---------------------------------

func BenchmarkAblationAdaptive_Interior(b *testing.B) {
	model := benchPLNNModel(17, 24)
	rng := rand.New(rand.NewSource(18))
	x := make(mat.Vec, 24)
	for i := range x {
		x[i] = rng.NormFloat64() * 3 // deep inside some region
	}
	o := core.New(core.Config{Seed: 19})
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		interp, err := o.Interpret(model, x, 0)
		if err != nil {
			b.Fatal(err)
		}
		iters = interp.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

func BenchmarkAblationAdaptive_NearBoundary(b *testing.B) {
	model := benchPLNNModel(20, 24)
	rng := rand.New(rand.NewSource(21))
	// Bisect to a point ~1e-9 from a region boundary.
	var a, c mat.Vec
	for {
		a, c = randVecBench(rng, 24), randVecBench(rng, 24)
		if model.RegionKey(a) != model.RegionKey(c) {
			break
		}
	}
	for i := 0; i < 30; i++ {
		mid := a.Add(c).ScaleInPlace(0.5)
		if model.RegionKey(mid) == model.RegionKey(a) {
			a = mid
		} else {
			c = mid
		}
	}
	o := core.New(core.Config{Seed: 22})
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		interp, err := o.Interpret(model, a, 0)
		if err != nil {
			b.Fatal(err)
		}
		iters = interp.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

func randVecBench(rng *rand.Rand, d int) mat.Vec {
	v := make(mat.Vec, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// --- End-to-end over HTTP ------------------------------------------------------

func BenchmarkOpenAPI_OverHTTP(b *testing.B) {
	model := benchPLNNModel(23, 16)
	ts := httptest.NewServer(api.NewServer(model, "bench"))
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	x := randVecBench(rng, 16)
	o := core.New(core.Config{Seed: 25})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Interpret(client, x, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := client.Err(); err != nil {
		b.Fatal(err)
	}
}

// unbatched hides a client's batch endpoint so PredictAll falls back to one
// HTTP round trip per probe.
type unbatched struct{ inner plm.Model }

func (u unbatched) Predict(x mat.Vec) mat.Vec { return u.inner.Predict(x) }
func (u unbatched) Dim() int                  { return u.inner.Dim() }
func (u unbatched) Classes() int              { return u.inner.Classes() }

func BenchmarkOpenAPI_OverHTTP_Unbatched(b *testing.B) {
	model := benchPLNNModel(31, 16)
	ts := httptest.NewServer(api.NewServer(model, "bench-unbatched"))
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	x := randVecBench(rng, 16)
	o := core.New(core.Config{Seed: 33})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Interpret(unbatched{client}, x, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := client.Err(); err != nil {
		b.Fatal(err)
	}
}

// --- Cross-instance query aggregation ------------------------------------------

// benchPoolOverHTTP measures the server-counted HTTP round trips a pool of 8
// concurrent interpreters costs, with per-job batching (each worker ships its
// own sample sets) versus cross-instance aggregation (an api.Aggregator
// coalesces all workers' probes into shared wire exchanges).
func benchPoolOverHTTP(b *testing.B, aggregate bool) {
	model := benchPLNNModel(34, 16)
	srv := api.NewServer(model, "bench-pool")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	xs := make([]mat.Vec, 16)
	for i := range xs {
		xs[i] = randVecBench(rng, 16)
	}
	pool := core.NewPool(core.Config{Seed: 36}, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m plm.Model = client
		var agg *api.Aggregator
		if aggregate {
			agg = api.NewAggregator(client, api.AggregatorConfig{Window: 2 * time.Millisecond})
			m = agg
		}
		for _, r := range pool.InterpretMany(m, xs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		if agg != nil {
			agg.Close()
		}
	}
	b.StopTimer()
	if err := client.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(srv.Requests())/float64(b.N), "round-trips/op")
	b.ReportMetric(float64(srv.Queries())/float64(b.N), "queries/op")
}

func BenchmarkOpenAPI_OverHTTP_Pool(b *testing.B)           { benchPoolOverHTTP(b, false) }
func BenchmarkOpenAPI_OverHTTP_AggregatedPool(b *testing.B) { benchPoolOverHTTP(b, true) }

// --- Adaptive flush window against a slow remote --------------------------------

// benchLatentRemotePool interprets a 16-instance batch with a pool of 8
// against a server with injected latency — the regime the adaptive window
// exists for. A fixed window has to be guessed per deployment: here the
// wire's real round trip is ~1ms, so the fixed 2ms default overshoots and
// every flush wave pays the full 2ms wait anyway. The adaptive window
// measures the RTT and settles at a fraction of it, flushing each wave as
// soon as its probes have realistically arrived — same round trips, less
// wall-clock per wave (and against a genuinely slow remote it grows toward
// MaxWindow instead, bounding straggler round trips without retuning).
func benchLatentRemotePool(b *testing.B, cfg api.AggregatorConfig) {
	model := benchPLNNModel(37, 16)
	srv := api.NewServer(model, "bench-latent-remote")
	srv.Latency = 750 * time.Microsecond
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	xs := make([]mat.Vec, 16)
	for i := range xs {
		xs[i] = randVecBench(rng, 16)
	}
	pool := core.NewPool(core.Config{Seed: 39}, 8)
	b.ResetTimer()
	var window time.Duration
	for i := 0; i < b.N; i++ {
		agg := api.NewAggregator(client, cfg)
		for _, r := range pool.InterpretMany(agg, xs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		agg.Close()
		window = agg.CurrentWindow()
	}
	b.StopTimer()
	if err := client.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(srv.Requests())/float64(b.N), "round-trips/op")
	b.ReportMetric(float64(window)/float64(time.Millisecond), "window-ms")
}

func BenchmarkOpenAPI_LatentRemote_FixedWindowPool(b *testing.B) {
	benchLatentRemotePool(b, api.AggregatorConfig{Window: 2 * time.Millisecond})
}

func BenchmarkOpenAPI_LatentRemote_AdaptiveWindowPool(b *testing.B) {
	benchLatentRemotePool(b, api.AggregatorConfig{Adaptive: true})
}

// --- Sharded replica serving -----------------------------------------------------

// benchShardedBatch measures server-side evaluation of one wide batch — the
// shape an aggregated pool ships — across replica counts. A single replica
// answers the batch serially; the shard router fans it out, so the speedup
// tracks the machine's core count (a single-core box shows parity).
func benchShardedBatch(b *testing.B, replicas int) {
	slots := make([]plm.Model, replicas)
	for i := range slots {
		slots[i] = benchPLNNModel(40, 64)
	}
	shard, err := api.NewShard(slots)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	xs := make([]mat.Vec, 256)
	for i := range xs {
		xs[i] = randVecBench(rng, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.PredictBatch(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedBatch_Replicas1(b *testing.B) { benchShardedBatch(b, 1) }
func BenchmarkShardedBatch_Replicas4(b *testing.B) { benchShardedBatch(b, 4) }

// --- Baseline probing cost -----------------------------------------------------

func BenchmarkBaseline_ZOO(b *testing.B) {
	model := benchPLNNModel(26, 48)
	rng := rand.New(rand.NewSource(27))
	x := randVecBench(rng, 48)
	z := eval.StandardBaselines(1e-6, 28)[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Interpret(model, x, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseline_LIMELinear(b *testing.B) {
	model := benchPLNNModel(29, 48)
	rng := rand.New(rand.NewSource(30))
	x := randVecBench(rng, 48)
	l := eval.StandardBaselines(1e-6, 31)[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Interpret(model, x, 0); err != nil {
			b.Fatal(err)
		}
	}
}
