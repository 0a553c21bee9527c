package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// This file holds the blocked GEMM kernels behind Mul, MulInto, MulBT,
// MulBTInto(Epilogue), MulAT and MulVecInto. The naive triple loop evaluates
// every output element as one serial dot product, so throughput is bound by
// the floating-point add latency of the single accumulator chain. The
// kernels below tile the output into register blocks: many accumulators
// advance through the shared k dimension together, hiding the add latency
// behind independent chains and loading every A and B row once per tile
// instead of once per element.
//
// Crucially, each output element still owns exactly one accumulator that
// takes its products in ascending-k order, one fused multiply-add per
// product (s = fma(a, b, s): one rounding per step) — the same steps MulVec
// and the naive loop take — so the blocked results are bit-identical to
// the scalar path. The blocking changes which elements make progress
// concurrently, never the operations within one element.
//
// Kernel tiers (see gemm_tier.go; DESIGN.md §14 has the full table): the
// dispatch ladder is selected by ActiveKernelTier, highest supported tier
// first, with lower tiers handling the remainders.
//
//	TierAVX512  amd64  dotPack16x4: 16 packed A rows × 4 B rows per call,
//	                   two ZMM of A and eight accumulator chains per k
//	                   step; dotPack8x4 (one ZMM) for the 8-row remainder
//	                   (gemm_amd64.s)
//	TierAVX2    amd64  dotPack4x4: 4 packed A rows × 4 B rows per call,
//	                   one YMM lane per A row (gemm_amd64.s); single rows
//	                   take dotRow8, eight scalar chains (AVX-512 too)
//	TierNEON    arm64  dotPack4x4: 4 packed A rows × 4 B rows per call,
//	                   two 2-lane vectors per A-row quad (gemm_arm64.s)
//	TierScalar  all    pure-Go 4x2 register tiles plus a 1-row×4-col tail
//
// The LU's level-2 kernels (gemm_level2.go) have AVX2 and AVX-512 rungs
// too; arm64 runs them in Go. Every step of every kernel is one correctly
// rounded fused multiply-add — VFMADD231PD/SD on amd64, VFMLA on arm64,
// math.FMA in the pure-Go loops; a subtracting step negates its multiplier
// first — so any two tiers round each step identically (enforced by the kernelpurity and roundedproduct analyzers
// and CI's arm64 listing check, DESIGN.md §11, §20). Without hardware FMA
// (amd64 CPUs older than Haswell) math.FMA is exact but emulated in
// software, and the vector tiers are not selected.
//
// Dispatch coverage notes: MulBTInto, MulInto, MulATInto and MulVecInto all
// route through gemmBT and therefore through the packed microkernels.
// MulInto packs B transposed; MulATInto packs both operands transposed (so
// batched gradient GEMMs run on the same packed kernels as forwards);
// MulVecInto runs as a 1-row tile whose 4-wide column tail carries four
// independent accumulator chains, and MulVec is MulVecInto into a fresh
// vector. Only MulVecT stays on a plain scalar loop.

// gemmWorkers caps the goroutines a single large multiply may fan out to.
// It defaults to GOMAXPROCS; SetWorkers(1) forces serial execution. Every
// partition is a contiguous block of output rows, each written by exactly
// one goroutine, so the result is bit-identical for any worker count.
var gemmWorkers = struct {
	sync.Mutex
	n int
}{n: 0} // 0 = resolve GOMAXPROCS at call time

// SetWorkers sets the maximum number of goroutines one matrix multiply may
// use (n <= 0 restores the default, GOMAXPROCS). It returns the previous
// setting. Results are identical for every worker count.
func SetWorkers(n int) int {
	gemmWorkers.Lock()
	defer gemmWorkers.Unlock()
	prev := gemmWorkers.n
	gemmWorkers.n = n
	return prev
}

func workers() int {
	gemmWorkers.Lock()
	n := gemmWorkers.n
	gemmWorkers.Unlock()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// parallelMACCutoff is the multiply-add count below which a product runs
// on one goroutine whatever its shape.
const parallelMACCutoff = 1 << 18

// minSpanRows is the fewest output rows fanOut gives one goroutine: two of
// the AVX-512 rung's 16-row tiles. A thinner span breaks a chunk's tiles
// into 8-, 4- and single-row remainders and spends more on the hand-off
// than its share of the work saves (BenchmarkMulBTIntoEpilogueFanOut,
// DESIGN.md §14).
const minSpanRows = 32

// fanOut returns how many goroutines a product of macs multiply-adds over
// rows independent output rows should be split across: one below
// parallelMACCutoff, else as many as workers() allows with every span at
// least minSpanRows rows. A worker count never changes a bit of the result.
func fanOut(rows, macs int) int {
	if macs < parallelMACCutoff {
		return 1
	}
	return max(1, min(workers(), rows/minSpanRows))
}

// scratch pools the packed-row buffers gemmBT needs, so composition chains
// that multiply in a loop stop hammering the allocator.
var scratchPool = sync.Pool{New: func() any { s := make([]float64, 0); return &s }}

func getScratch(n int) *[]float64 {
	s := scratchPool.Get().(*[]float64)
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return s
}

func putScratch(s *[]float64) { scratchPool.Put(s) }

// denseScratchPool pools transposed-operand headers together with their
// backing storage. The headers must be pooled too: the transposed operand
// is captured by the parallelRows closure, so a stack-local Dense would
// escape and heap-allocate on every call — visible as per-batch garbage in
// the training loop.
var denseScratchPool = sync.Pool{New: func() any { return new(Dense) }}

func getScratchDense(r, c int) *Dense {
	d := denseScratchPool.Get().(*Dense)
	n := r * c
	if cap(d.data) < n {
		d.data = make([]float64, n)
	}
	d.data = d.data[:n]
	d.rows, d.cols = r, c
	return d
}

func putScratchDense(d *Dense) { denseScratchPool.Put(d) }

// lhs is gemmBT's left operand: rows of k floats each, taken either from
// one row-major array or, for a batch handed over as separate vectors,
// from the vectors themselves, so that a batched forward packs its tiles
// straight from the input rows instead of stacking them into a matrix
// first (MulRowsBTIntoEpilogue).
type lhs struct {
	data []float64 // the rows, row-major, when rows is nil
	rows []Vec
	k    int
}

// lhs returns m's rows as a left operand.
func (m *Dense) lhs() lhs { return lhs{data: m.data, k: m.cols} }

// row returns row i, k floats long.
func (a lhs) row(i int) []float64 {
	if a.rows != nil {
		return a.rows[i][:a.k]
	}
	return a.data[i*a.k : i*a.k+a.k]
}

// MulVecInto computes dst = m * x without allocating; dst must have length
// m.Rows() and must not alias x or m. It returns dst. Each element is one
// ascending-k dot product, bit-identical to the scalar loop. The product
// runs as a 1-row tile through the shared gemmBT kernel — dst viewed
// 1×rows equals x viewed 1×k times mᵀ — so single-instance predictions get
// the same 4-chain column tail the batched path uses instead of one serial
// dot product per output.
func (m *Dense) MulVecInto(x, dst Vec) Vec {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVecInto length %d != cols %d", len(x), m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecInto dst length %d != rows %d", len(dst), m.rows))
	}
	d := Dense{rows: 1, cols: m.rows, data: dst}
	gemmBT(&d, lhs{data: x, k: m.cols}, m, 0, 1, nil, false)
	return dst
}

// MulBT returns m * bᵀ as a new matrix: out[i][j] = Σ_k m[i][k]·b[j][k].
// Both operands are walked along contiguous rows, which makes this the
// natural kernel for batched layer forwards (X · Wᵀ).
func (m *Dense) MulBT(b *Dense) *Dense {
	out := NewDense(m.rows, b.rows)
	m.MulBTInto(b, out)
	return out
}

// MulBTInto computes dst = m * bᵀ into dst, which must be m.Rows() by
// b.Rows() and must not alias m or b. It returns dst. It is
// MulBTIntoEpilogue with no epilogue.
func (m *Dense) MulBTInto(b, dst *Dense) *Dense {
	return m.MulBTIntoEpilogue(b, dst, nil)
}

// MulInto computes dst = m * b into dst, which must be m.Rows() by b.Cols()
// and must not alias m or b. It returns dst. B is packed transposed into a
// pooled scratch buffer so the inner kernel runs on contiguous rows.
func (m *Dense) MulInto(b, dst *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto dst %dx%d, want %dx%d", dst.rows, dst.cols, m.rows, b.cols))
	}
	checkNoAlias("MulInto", dst, m, b)
	bt := getScratchDense(b.cols, b.rows)
	for i := 0; i < b.rows; i++ {
		row := b.data[i*b.cols : (i+1)*b.cols]
		for j, v := range row {
			bt.data[j*bt.cols+i] = v
		}
	}
	if w := fanOut(m.rows, m.rows*m.cols*b.cols); w > 1 {
		parallelRows(m.rows, w, func(lo, hi int) { gemmBT(dst, m.lhs(), bt, lo, hi, nil, false) })
	} else {
		gemmBT(dst, m.lhs(), bt, 0, m.rows, nil, false)
	}
	putScratchDense(bt)
	return dst
}

// MulAT returns mᵀ * b as a new matrix: out[i][j] = Σ_k m[k][i]·b[k][j].
// The shared k dimension is the row dimension of both operands, which makes
// this the natural kernel for batched backprop weight gradients
// (dW = deltaᵀ · activations, summed over the mini-batch).
func (m *Dense) MulAT(b *Dense) *Dense {
	out := NewDense(m.cols, b.cols)
	m.MulATInto(b, out)
	return out
}

// MulATInto computes dst = mᵀ * b into dst, which must be m.Cols() by
// b.Cols() and must not alias m or b. Both operands are packed transposed
// into pooled scratch so the blocked kernel — including the packed
// microkernel of the active tier — runs on contiguous rows; the transpose
// packing is what routes this call onto the same vector path as MulBTInto.
// Every output element is one ascending-k fused multiply-add chain over
// the shared row dimension — the same steps a per-sample accumulation loop
// over rows 0,1,2,… takes — so batched gradient sums are bit-identical to
// sequential per-sample accumulation. It returns dst.
func (m *Dense) MulATInto(b, dst *Dense) *Dense {
	if m.rows != b.rows {
		panic(fmt.Sprintf("mat: MulAT (%dx%d)ᵀ by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	if dst.rows != m.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulATInto dst %dx%d, want %dx%d", dst.rows, dst.cols, m.cols, b.cols))
	}
	checkNoAlias("MulATInto", dst, m, b)
	at := getScratchDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			at.data[j*at.cols+i] = v
		}
	}
	bt := getScratchDense(b.cols, b.rows)
	for i := 0; i < b.rows; i++ {
		row := b.data[i*b.cols : (i+1)*b.cols]
		for j, v := range row {
			bt.data[j*bt.cols+i] = v
		}
	}
	if w := fanOut(at.rows, m.cols*m.rows*b.cols); w > 1 {
		parallelRows(at.rows, w, func(lo, hi int) { gemmBT(dst, at.lhs(), bt, lo, hi, nil, false) })
	} else {
		gemmBT(dst, at.lhs(), bt, 0, at.rows, nil, false)
	}
	putScratchDense(bt)
	putScratchDense(at)
	return dst
}

// checkNoAlias panics when dst shares backing storage with an operand;
// the kernels write dst while still reading the operands.
func checkNoAlias(op string, dst *Dense, operands ...*Dense) {
	if len(dst.data) == 0 {
		return
	}
	for _, o := range operands {
		if len(o.data) > 0 && &o.data[0] == &dst.data[0] {
			panic("mat: " + op + " dst aliases an operand")
		}
	}
}

// parallelRows splits [0, rows) into one contiguous span per worker and runs
// work on each concurrently. Spans are aligned to the 4-row register tile so
// every tile stays within one worker. (An AVX-512 16- or 8-row tile split
// across a span boundary simply reforms as smaller tiles — same chains,
// same bits.)
func parallelRows(rows, w int, work func(lo, hi int)) {
	if w > rows {
		w = rows
	}
	per := (rows + w - 1) / w
	per = (per + 3) &^ 3 // align spans to the 4-row tile
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmBT fills rows [i0, i1) of dst with a · bᵀ and, when epi is non-nil,
// applies the fused epilogue to each row block as soon as its accumulator
// chains have committed — while the block is still cache-hot. With sub set
// it subtracts the product instead (dst −= a · bᵀ, epi nil): the LU's
// trailing update, one subtraction of each finished chain, as a separate
// product-then-subtract pass would do. dst may be a strided view: its cols
// is the row stride, only the first b.rows columns of a row are written,
// and its data need only reach the last of them.
//
// The dispatch ladder runs the highest active tier first (the 16- and
// 8-row AVX-512 packs, then the 4-row AVX2/NEON pack, then pure-Go 4x2
// register tiles, then single rows with a 4-wide column tail); lower rungs
// pick up the row remainders of higher ones. Every schedule evaluates
// every output element as one ascending-k chain of fused multiply-adds, so
// the bits match on all of them.
func gemmBT(dst *Dense, a lhs, b *Dense, i0, i1 int, epi *Epilogue, sub bool) {
	k := a.k
	n := b.rows
	i := i0
	tier := ActiveKernelTier()
	if tier >= TierAVX512 && k > 0 && n > 0 {
		i = gemmPacked(dst, a, b, i, i1, 16, epi, sub)
		i = gemmPacked(dst, a, b, i, i1, 8, epi, sub)
	}
	if tier >= TierNEON && k > 0 && n > 0 {
		i = gemmPacked(dst, a, b, i, i1, 4, epi, sub)
	}
	for ; i+4 <= i1; i += 4 {
		a0, a1, a2, a3 := a.row(i), a.row(i+1), a.row(i+2), a.row(i+3)
		d0 := dst.data[(i+0)*dst.cols : (i+0)*dst.cols+n]
		d1 := dst.data[(i+1)*dst.cols : (i+1)*dst.cols+n]
		d2 := dst.data[(i+2)*dst.cols : (i+2)*dst.cols+n]
		d3 := dst.data[(i+3)*dst.cols : (i+3)*dst.cols+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b.data[(j+0)*k : (j+0)*k+k]
			// Reslicing every operand to len(b0) lets the compiler drop the
			// bounds checks in the hot loop below.
			b1 := b.data[(j+1)*k : (j+1)*k+k][:len(b0)]
			x0, x1, x2, x3 := a0[:len(b0)], a1[:len(b0)], a2[:len(b0)], a3[:len(b0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for t, bv0 := range b0 {
				bv1 := b1[t]
				av := x0[t]
				s00 = math.FMA(av, bv0, s00)
				s01 = math.FMA(av, bv1, s01)
				av = x1[t]
				s10 = math.FMA(av, bv0, s10)
				s11 = math.FMA(av, bv1, s11)
				av = x2[t]
				s20 = math.FMA(av, bv0, s20)
				s21 = math.FMA(av, bv1, s21)
				av = x3[t]
				s30 = math.FMA(av, bv0, s30)
				s31 = math.FMA(av, bv1, s31)
			}
			store(d0, j, sub, s00)
			store(d0, j+1, sub, s01)
			store(d1, j, sub, s10)
			store(d1, j+1, sub, s11)
			store(d2, j, sub, s20)
			store(d2, j+1, sub, s21)
			store(d3, j, sub, s30)
			store(d3, j+1, sub, s31)
		}
		if j < n {
			b0 := b.data[j*k : j*k+k]
			x0, x1, x2, x3 := a0[:len(b0)], a1[:len(b0)], a2[:len(b0)], a3[:len(b0)]
			var s0, s1, s2, s3 float64
			for t, bv := range b0 {
				s0 = math.FMA(x0[t], bv, s0)
				s1 = math.FMA(x1[t], bv, s1)
				s2 = math.FMA(x2[t], bv, s2)
				s3 = math.FMA(x3[t], bv, s3)
			}
			store(d0, j, sub, s0)
			store(d1, j, sub, s1)
			store(d2, j, sub, s2)
			store(d3, j, sub, s3)
		}
		applyEpilogueRows(dst, epi, i, i+4)
	}
	for ; i < i1; i++ {
		ar := a.row(i)
		drow := dst.data[i*dst.cols : i*dst.cols+n]
		j := 0
		if tier >= TierAVX2 && k > 0 {
			// Hardware FMA: eight B rows per dotRow8 call. On amd64 the Go
			// loops below test for hardware FMA at every math.FMA, and the
			// compiler spills their accumulators around the software
			// fallback's call.
			var out [8]float64
			for ; j+8 <= n; j += 8 {
				dotRow8(&ar[0], &b.data[j*k], k, &out)
				store4(drow, j, sub, out[0], out[1], out[2], out[3])
				store4(drow, j+4, sub, out[4], out[5], out[6], out[7])
			}
		}
		// The 1-row tile: four B rows at once, four independent accumulator
		// chains — one per output element — so a single row (MulVecInto, the
		// row remainder of a batch) still hides the FMA latency.
		for ; j+4 <= n; j += 4 {
			b0 := b.data[(j+0)*k : (j+0)*k+k]
			b1 := b.data[(j+1)*k : (j+1)*k+k][:len(b0)]
			b2 := b.data[(j+2)*k : (j+2)*k+k][:len(b0)]
			b3 := b.data[(j+3)*k : (j+3)*k+k][:len(b0)]
			x := ar[:len(b0)]
			var s0, s1, s2, s3 float64
			for t, av := range x {
				s0 = math.FMA(av, b0[t], s0)
				s1 = math.FMA(av, b1[t], s1)
				s2 = math.FMA(av, b2[t], s2)
				s3 = math.FMA(av, b3[t], s3)
			}
			store4(drow, j, sub, s0, s1, s2, s3)
		}
		for ; j < n; j++ {
			br := b.data[j*k : j*k+k]
			x := ar[:len(br)]
			var s float64
			for t, bv := range br {
				s = math.FMA(x[t], bv, s)
			}
			store(drow, j, sub, s)
		}
		applyEpilogueRows(dst, epi, i, i+1)
	}
}

// gemmPacked is one vector rung of gemmBT: rows [i, i1) in blocks of rows
// (16, 8 or 4) packed A rows through that width's microkernel. It returns
// the first row it left to the rungs below. A column tail of one to three
// B rows repeats its last row in the kernel's unused slots, and those
// lanes are dropped: each kept lane is the chain a full block computes, so
// no column needs a scalar tail loop.
func gemmPacked(dst *Dense, a lhs, b *Dense, i, i1, rows int, epi *Epilogue, sub bool) int {
	if i+rows > i1 {
		return i
	}
	k, n := a.k, b.rows
	sp := getScratch(rows * k)
	pack := (*sp)[:rows*k]
	var out [64]float64
	var d [16][]float64
	for ; i+rows <= i1; i += rows {
		switch rows {
		case 16:
			packSixteenRows(pack, a, i)
		case 8:
			packEightRows(pack, a, i)
		default:
			packFourRows(pack, a, i)
		}
		for l := range d[:rows] {
			d[l] = dst.data[(i+l)*dst.cols : (i+l)*dst.cols+n]
		}
		for j := 0; j < n; j += 4 {
			b0 := &b.data[j*k]
			b1 := &b.data[min(j+1, n-1)*k]
			b2 := &b.data[min(j+2, n-1)*k]
			b3 := &b.data[min(j+3, n-1)*k]
			switch rows {
			case 16:
				dotPack16x4(&pack[0], b0, b1, b2, b3, k, &out)
			case 8:
				dotPack8x4(&pack[0], b0, b1, b2, b3, k, (*[32]float64)(out[:32]))
			default:
				dotPack4x4(&pack[0], b0, b1, b2, b3, k, (*[16]float64)(out[:16]))
			}
			if j+4 <= n {
				for l, dl := range d[:rows] {
					store4(dl, j, sub, out[l], out[rows+l], out[2*rows+l], out[3*rows+l])
				}
				continue
			}
			for l, dl := range d[:rows] {
				for c := j; c < n; c++ {
					store(dl, c, sub, out[(c-j)*rows+l])
				}
			}
		}
		applyEpilogueRows(dst, epi, i, i+rows)
	}
	putScratch(sp)
	return i
}

// store commits one finished chain: d[j] = v, or d[j] −= v in sub mode.
func store(d []float64, j int, sub bool, v float64) {
	if sub {
		d[j] -= v
		return
	}
	d[j] = v
}

// store4 is store for the four chains of d[j:j+4].
func store4(d []float64, j int, sub bool, v0, v1, v2, v3 float64) {
	d = d[j : j+4 : j+4]
	if sub {
		d[0] -= v0
		d[1] -= v1
		d[2] -= v2
		d[3] -= v3
		return
	}
	d[0], d[1], d[2], d[3] = v0, v1, v2, v3
}

// packFourRows interleaves rows i..i+3 of a feature-major: pack[4t+l] =
// a[i+l][t], the layout the 4-row vector microkernel consumes with one load
// per shared k step.
func packFourRows(pack []float64, a lhs, i int) {
	k := a.k
	a0 := a.row(i + 0)[:k]
	a1 := a.row(i + 1)[:k]
	a2 := a.row(i + 2)[:k]
	a3 := a.row(i + 3)[:k]
	for t, v := range a0 {
		p := pack[4*t : 4*t+4 : 4*t+4]
		p[0] = v
		p[1] = a1[t]
		p[2] = a2[t]
		p[3] = a3[t]
	}
}

// packEightRows interleaves rows i..i+7 feature-major: pack[8t+l] =
// a[i+l][t], one 64-byte ZMM load per shared k step for the AVX-512
// microkernel.
func packEightRows(pack []float64, a lhs, i int) {
	k := a.k
	a0 := a.row(i + 0)[:k]
	a1 := a.row(i + 1)[:k]
	a2 := a.row(i + 2)[:k]
	a3 := a.row(i + 3)[:k]
	a4 := a.row(i + 4)[:k]
	a5 := a.row(i + 5)[:k]
	a6 := a.row(i + 6)[:k]
	a7 := a.row(i + 7)[:k]
	for t, v := range a0 {
		p := pack[8*t : 8*t+8 : 8*t+8]
		p[0] = v
		p[1] = a1[t]
		p[2] = a2[t]
		p[3] = a3[t]
		p[4] = a4[t]
		p[5] = a5[t]
		p[6] = a6[t]
		p[7] = a7[t]
	}
}

// packSixteenRows interleaves rows i..i+15 feature-major: pack[16t+l] =
// a[i+l][t], two ZMM loads per shared k step for dotPack16x4.
func packSixteenRows(pack []float64, a lhs, i int) {
	k := a.k
	a0 := a.row(i + 0)[:k]
	a1 := a.row(i + 1)[:k]
	a2 := a.row(i + 2)[:k]
	a3 := a.row(i + 3)[:k]
	a4 := a.row(i + 4)[:k]
	a5 := a.row(i + 5)[:k]
	a6 := a.row(i + 6)[:k]
	a7 := a.row(i + 7)[:k]
	a8 := a.row(i + 8)[:k]
	a9 := a.row(i + 9)[:k]
	a10 := a.row(i + 10)[:k]
	a11 := a.row(i + 11)[:k]
	a12 := a.row(i + 12)[:k]
	a13 := a.row(i + 13)[:k]
	a14 := a.row(i + 14)[:k]
	a15 := a.row(i + 15)[:k]
	for t, v := range a0 {
		p := pack[16*t : 16*t+16 : 16*t+16]
		p[0] = v
		p[1] = a1[t]
		p[2] = a2[t]
		p[3] = a3[t]
		p[4] = a4[t]
		p[5] = a5[t]
		p[6] = a6[t]
		p[7] = a7[t]
		p[8] = a8[t]
		p[9] = a9[t]
		p[10] = a10[t]
		p[11] = a11[t]
		p[12] = a12[t]
		p[13] = a13[t]
		p[14] = a14[t]
		p[15] = a15[t]
	}
}
