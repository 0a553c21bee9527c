package mat

// cpuHasAVX2 reports whether the CPU and OS support AVX2 execution and the
// CPU has FMA, which every AVX2-tier kernel uses. Implemented in
// gemm_amd64.s.
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the CPU and OS support AVX-512 foundation
// (AVX512F) execution, including OS-enabled ZMM/opmask state. Implemented in
// gemm_amd64.s.
func cpuHasAVX512() bool

// dotPack4x4 computes four 4-lane dot products over a shared k dimension:
// out[4j+l] = Σ_t pack[4t+l]·bj[t]. Implemented in gemm_amd64.s with one
// AVX2 fused multiply-add per lane and step, bit-identical to scalar
// evaluation. Callers must have checked the active tier and k > 0.
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
// AVX-512 fused multiply-adds — one ZMM lane per packed A row — so each
// output element is still a single ascending-k chain of one-rounding
// steps, bit-identical to scalar evaluation. Callers must have checked the
// active tier and k > 0. Same noescape argument as dotPack4x4.
//
//go:noescape
func dotPack8x4(pack, b0, b1, b2, b3 *float64, k int, out *[32]float64)

// dotPack16x4 is dotPack8x4 over sixteen packed A rows: out[16j+l] =
// Σ_t pack[16t+l]·bj[t], two ZMM of A per k step and eight accumulator
// chains (gemm_amd64.s). Same contract and noescape argument.
//
//go:noescape
func dotPack16x4(pack, b0, b1, b2, b3 *float64, k int, out *[64]float64)

// dotRow8 computes eight dot products of one A row with eight consecutive
// B rows, row r at b + r·k: out[r] = Σ_t a[t]·b[r·k+t], one scalar fused
// multiply-add per step in ascending t (gemm_amd64.s) — the chains of the
// Go 1-row tile, bit for bit. Callers must have checked for an AVX2 or
// AVX-512 tier (both imply FMA) and k > 0. Same noescape argument as
// dotPack4x4.
//
//go:noescape
func dotRow8(a, b *float64, k int, out *[8]float64)

// CPU capability of each microkernel tier on amd64; resolved once at
// startup. The AVX-512 tier runs the AVX2 kernels on its remainders, so it
// needs the AVX2 tier's features (FMA included) too. NEON is an arm64 tier
// and never available here.
var (
	haveAVX2   = cpuHasAVX2()
	haveAVX512 = haveAVX2 && cpuHasAVX512()
)

const haveNEON = false

// The LU's level-2 kernels (gemm_level2.go has the contracts and the Go
// loops they match bit for bit). The subScaled kernels take negated
// multipliers, na = −a, the operand the Go loops fuse. n is a positive
// multiple of the lane count: 4 for AVX2, 8 for AVX-512. Same noescape
// argument as dotPack4x4.

//go:noescape
func subScaledAVX2(dst, v *float64, n int, na float64)

//go:noescape
func subScaledAVX512(dst, v *float64, n int, na float64)

//go:noescape
func subScaled4AVX2(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64)

//go:noescape
func subScaled4AVX512(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64)

//go:noescape
func subDotCols4AVX2(dst, l, x *float64, nl, stride int)

//go:noescape
func subDotCols16AVX512(dst, l, x *float64, nl, stride, w int)
