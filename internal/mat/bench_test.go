package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the solver kernels OpenAPI leans on; the d=257 and
// d=785 cases match the paper's image dimensionalities plus the bias column.

func benchSystem(b *testing.B, n int) (*Dense, Vec) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	a := diagDominant(rng, n)
	rhs := make(Vec, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return a, rhs
}

func benchLU(b *testing.B, n int) {
	a, rhs := benchSystem(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Factor(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.SolveVec(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUFactorSolve_n65(b *testing.B)  { benchLU(b, 65) }
func BenchmarkLUFactorSolve_n257(b *testing.B) { benchLU(b, 257) }
func BenchmarkLUFactorSolve_n785(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	benchLU(b, 785)
}

// benchLUDesign factors OpenAPI's own coefficient matrix: rows [1, x] for x0
// and n−1 points of the hypercube of edge 2⁻¹⁰ around it, a shape that
// pivots, unlike the diagonally dominant benchSystem. It reports the rate
// at the nominal 2n³/3 flops; allocations are the returned LU's plus, with
// more than one worker, the goroutine fan-out of each panel's update.
func benchLUDesign(b *testing.B, n int) {
	a := designMatrixAt(rand.New(rand.NewSource(int64(n))), n, 0x1p-10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a); err != nil {
			b.Fatal(err)
		}
	}
	nf := float64(n)
	b.ReportMetric(2*nf*nf*nf/3*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkLUFactor_Design65(b *testing.B)  { benchLUDesign(b, 65) }
func BenchmarkLUFactor_Design785(b *testing.B) { benchLUDesign(b, 785) }

// The shared-RHS path: one factorization, many solves — OpenAPI's inner
// loop across class pairs.
func BenchmarkLUSolveOnly_n257(b *testing.B) {
	a, rhs := benchSystem(b, 257)
	f, err := Factor(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SolveVec(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUSolveInto_785x9 is the interpreter's solve: the C−1 = 9 class
// pairs of a 10-class model against one n = 785 design factor, all
// right-hand sides in one call.
func BenchmarkLUSolveInto_785x9(b *testing.B) {
	rng := rand.New(rand.NewSource(785))
	f, err := Factor(designMatrixAt(rng, 785, 0x1p-10))
	if err != nil {
		b.Fatal(err)
	}
	rhs := randDense(rng, 785, 9)
	x := NewDense(785, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SolveInto(rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQR(b *testing.B, rows, cols int) {
	rng := rand.New(rand.NewSource(int64(rows)))
	a := randDense(rng, rows, cols)
	rhs := make(Vec, rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := FactorQR(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.SolveVec(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRLeastSquares_130x65(b *testing.B)  { benchQR(b, 130, 65) }
func BenchmarkQRLeastSquares_514x257(b *testing.B) { benchQR(b, 514, 257) }

func BenchmarkMulVec_257(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 257, 257)
	x := make(Vec, 257)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}

// GEMM kernels (PR 3): the blocked/vectorized Mul-family the batched
// forward and the closed-form composition chain run on.

func benchGEMMPair(b *testing.B, m, k, n int) (*Dense, *Dense) {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	return randDense(rng, m, k), randDense(rng, k, n)
}

func BenchmarkMul_256x784x256(b *testing.B) {
	x, w := benchGEMMPair(b, 256, 784, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(w)
	}
}

func BenchmarkMulBT_256x784x256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := randDense(rng, 256, 784)
	w := randDense(rng, 256, 784) // batched layer forward shape: X · Wᵀ
	dst := NewDense(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulBTInto(w, dst)
	}
}

// Fused epilogues + kernel tiers (PR 9): the batched layer forward's GEMM
// with bias add, activity-mask capture and activation fused into the row
// blocks, running at the machine's best tier.

func benchEpilogueSetup(b *testing.B) (x, w, dst *Dense, epi *Epilogue) {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	x = randDense(rng, 256, 784)
	w = randDense(rng, 256, 784)
	dst = NewDense(256, 256)
	bias := make(Vec, 256)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	epi = &Epilogue{Bias: bias, Act: ActLeakyReLU, Leak: 0.01, Mask: make([]bool, 256*256)}
	return x, w, dst, epi
}

func BenchmarkMulEpilogue_256x784x256(b *testing.B) {
	x, w, dst, epi := benchEpilogueSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulBTIntoEpilogue(w, dst, epi)
	}
}

// The serial variant makes the fused path's steady-state allocation count
// visible (0 allocs/op into pooled scratch) and reports the one-core GEMM
// rate; the parallel variant's only allocations are its per-call worker
// goroutines.
func BenchmarkMulEpilogueSerial_256x784x256(b *testing.B) {
	x, w, dst, epi := benchEpilogueSetup(b)
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	x.MulBTIntoEpilogue(w, dst, epi) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulBTIntoEpilogue(w, dst, epi)
	}
	b.ReportMetric(2*256*784*256*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMulBTIntoEpilogueFanOut is the table behind fanOut's break-even
// (DESIGN.md §14): the batched forward's first-layer GEMM (rows×k inputs
// times a 256×k weight, ReLU epilogue) at the chunk sizes the serving path
// sends, run on one goroutine (workers=1) or split into two row spans
// whatever its size (workers=2). With load=idle one product runs at a
// time; with load=busy GOMAXPROCS goroutines run products side by side,
// as two workers' chunks of one probe round do, and ns/op is wall time
// over all of them.
func BenchmarkMulBTIntoEpilogueFanOut(b *testing.B) {
	const n = 256
	for _, k := range []int{64, 784} {
		for _, rows := range []int{16, 33, 66, 128, 197, 256} {
			rng := rand.New(rand.NewSource(13))
			x, w := randDense(rng, rows, k), randDense(rng, n, k)
			bias := make(Vec, n)
			for i := range bias {
				bias[i] = rng.NormFloat64()
			}
			epi := &Epilogue{Bias: bias, Act: ActReLU}
			run := func(workers int, dst *Dense) {
				if workers == 1 {
					gemmBT(dst, x.lhs(), w, 0, rows, epi, false)
					return
				}
				parallelRows(rows, workers, func(lo, hi int) { gemmBT(dst, x.lhs(), w, lo, hi, epi, false) })
			}
			for _, load := range []string{"idle", "busy"} {
				for _, workers := range []int{1, 2} {
					b.Run(fmt.Sprintf("k=%d/rows=%d/load=%s/workers=%d", k, rows, load, workers), func(b *testing.B) {
						if load == "idle" {
							dst := NewDense(rows, n)
							run(workers, dst) // warm the pack scratch
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								run(workers, dst)
							}
						} else {
							b.RunParallel(func(pb *testing.PB) {
								dst := NewDense(rows, n)
								for pb.Next() {
									run(workers, dst)
								}
							})
						}
						b.ReportMetric(2*float64(rows*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
			}
		}
	}
}

// BenchmarkMulNaive_256x784x256 is the pre-PR-3 triple loop, kept as the
// baseline the blocked kernel is measured against.
func BenchmarkMulNaive_256x784x256(b *testing.B) {
	x, w := benchGEMMPair(b, 256, 784, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewDense(x.Rows(), w.Cols())
		for r := 0; r < x.Rows(); r++ {
			orow := out.RawRow(r)
			for t := 0; t < x.Cols(); t++ {
				a := x.At(r, t)
				if a == 0 {
					continue
				}
				brow := w.RawRow(t)
				for j, bv := range brow {
					orow[j] += a * bv
				}
			}
		}
	}
}
