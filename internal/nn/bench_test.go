package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// The PR-3 headline benchmarks: a 256-instance server-side batch forward
// through the paper's image architecture (784-256-128-100-10), batched GEMM
// versus the per-instance loop the server ran before. Outputs are
// bit-identical; only the schedule differs.

const benchBatch = 256

func benchNetAndBatch(b *testing.B) (*Network, []mat.Vec) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	n := New(rng, 784, 256, 128, 100, 10)
	xs := randBatch(rng, benchBatch, 784)
	return n, xs
}

func BenchmarkLogitsLoop256(b *testing.B) {
	n, xs := benchNetAndBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			_ = n.Logits(x)
		}
	}
}

func BenchmarkLogitsBatch256(b *testing.B) {
	n, xs := benchNetAndBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.LogitsBatch(xs)
	}
}

func BenchmarkPredictLoop256(b *testing.B) {
	n, xs := benchNetAndBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			_ = n.Predict(x)
		}
	}
}

func BenchmarkPredictBatch256(b *testing.B) {
	n, xs := benchNetAndBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.PredictBatch(xs)
	}
}

// The PR-5 headline benchmarks: one full training epoch over 256 samples
// of the paper's image architecture, the per-sample reference
// (trainPerSample) versus Train's batched GEMM step. Both produce
// bit-identical weights (see the Train parity tests); only the schedule
// differs.

func benchTrainSetup(b *testing.B) (*Network, []mat.Vec, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(44))
	n := New(rng, 784, 256, 128, 100, 10)
	xs := randBatch(rng, benchBatch, 784)
	ys := make([]int, len(xs))
	for i := range ys {
		ys[i] = rng.Intn(10)
	}
	return n, xs, ys
}

func benchTrainEpoch(b *testing.B, perSample bool) {
	base, xs, ys := benchTrainSetup(b)
	cfg := TrainConfig{Epochs: 1, BatchSize: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := base.Clone()
		rng := rand.New(rand.NewSource(45))
		b.StartTimer()
		if perSample {
			trainPerSample(net, rng, xs, ys, cfg)
		} else if _, err := net.Train(rng, xs, ys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpoch_PerSample(b *testing.B) { benchTrainEpoch(b, true) }

func BenchmarkTrainEpoch_Batched(b *testing.B) { benchTrainEpoch(b, false) }

func benchMaxoutTrainEpoch(b *testing.B, perSample bool) {
	rng := rand.New(rand.NewSource(46))
	base := NewMaxout(rng, 3, 128, 64, 32, 10)
	xs := randBatch(rng, benchBatch, 128)
	ys := make([]int, len(xs))
	for i := range ys {
		ys[i] = rng.Intn(10)
	}
	cfg := TrainConfig{Epochs: 1, BatchSize: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := base.Clone()
		r := rand.New(rand.NewSource(47))
		b.StartTimer()
		if perSample {
			trainPerSample(net, r, xs, ys, cfg)
		} else if _, err := net.Train(r, xs, ys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochMaxout_PerSample(b *testing.B) { benchMaxoutTrainEpoch(b, true) }

func BenchmarkTrainEpochMaxout_Batched(b *testing.B) { benchMaxoutTrainEpoch(b, false) }

// The PR-9 headline benchmark: the fused GEMM-epilogue forward at the
// machine's best kernel tier. It times the same call as
// BenchmarkLogitsBatch256 and keeps its own name because BENCH_pr9.json
// gates it.

func BenchmarkForwardFused256(b *testing.B) {
	n, xs := benchNetAndBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.LogitsBatch(xs)
	}
}

// BenchmarkPredictBatchChunk times one served chunk — what a worker's
// forward runs per request — at the chunk shapes of the end-to-end
// workloads on the paper's image architecture: a 33-row half of a d = 64
// probe round, a 64-row quarter of a 256-row batch at d = 784, and a
// 197-row quarter of a d = 784 probe round.
func BenchmarkPredictBatchChunk(b *testing.B) {
	for _, c := range []struct{ d, rows int }{{64, 33}, {784, 64}, {784, 197}} {
		b.Run(fmt.Sprintf("d=%d/rows=%d", c.d, c.rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			n := New(rng, c.d, 256, 128, 100, 10)
			xs := randBatch(rng, c.rows, c.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = n.PredictBatch(xs)
			}
		})
	}
}

func BenchmarkMaxoutLogitsBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	n := NewMaxout(rng, 3, 128, 64, 32, 10)
	xs := randBatch(rng, 64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.LogitsBatch(xs)
	}
}

func BenchmarkMaxoutLogitsLoop64(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	n := NewMaxout(rng, 3, 128, 64, 32, 10)
	xs := randBatch(rng, 64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			_ = n.Logits(x)
		}
	}
}
