package mat

// cpuHasAVX2 reports whether the CPU and OS support AVX2 execution.
// Implemented in gemm_amd64.s.
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the CPU and OS support AVX-512 foundation
// (AVX512F) execution, including OS-enabled ZMM/opmask state. Implemented in
// gemm_amd64.s.
func cpuHasAVX512() bool

// dotPack4x4 computes four 4-lane dot products over a shared k dimension:
// out[4j+l] = Σ_t pack[4t+l]·bj[t]. Implemented in gemm_amd64.s with AVX2
// mul-then-add per lane, bit-identical to scalar evaluation. Callers must
// have checked the active tier and k > 0.
//
// The assembly only dereferences its pointers during the call and retains
// none of them, so the noescape pragma is sound; without it every gemmBT
// call heap-allocates its 16-element accumulator tile, which dominated the
// allocation profile of batched training.
//
//go:noescape
func dotPack4x4(pack, b0, b1, b2, b3 *float64, k int, out *[16]float64)

// dotPack8x4 computes four 8-lane dot products over a shared k dimension:
// out[8j+l] = Σ_t pack[8t+l]·bj[t]. Implemented in gemm_amd64.s with
// AVX-512 mul-then-add per lane — one ZMM lane per packed A row — so each
// output element is still a single ascending-k two-rounding chain,
// bit-identical to scalar evaluation. Callers must have checked the active
// tier and k > 0. Same noescape argument as dotPack4x4.
//
//go:noescape
func dotPack8x4(pack, b0, b1, b2, b3 *float64, k int, out *[32]float64)

// dotPack16x4 is dotPack8x4 over sixteen packed A rows: out[16j+l] =
// Σ_t pack[16t+l]·bj[t], two ZMM of A per k step and eight accumulator
// chains (gemm_amd64.s). Same contract and noescape argument.
//
//go:noescape
func dotPack16x4(pack, b0, b1, b2, b3 *float64, k int, out *[64]float64)

// CPU capability of each microkernel tier on amd64; resolved once at
// startup. NEON is an arm64 tier and never available here.
var (
	haveAVX2   = cpuHasAVX2()
	haveAVX512 = cpuHasAVX512()
)

const haveNEON = false

// The LU's level-2 kernels (gemm_level2.go has the contracts and the Go
// loops they match bit for bit). n is a positive multiple of the lane
// count: 4 for AVX2, 8 for AVX-512. Same noescape argument as dotPack4x4.

//go:noescape
func subScaledAVX2(dst, v *float64, n int, a float64)

//go:noescape
func subScaledAVX512(dst, v *float64, n int, a float64)

//go:noescape
func subScaled4AVX2(dst, v0, v1, v2, v3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func subScaled4AVX512(dst, v0, v1, v2, v3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func subDotCols4AVX2(dst, l, x *float64, nl, stride int)

//go:noescape
func subDotCols16AVX512(dst, l, x *float64, nl, stride, w int)
