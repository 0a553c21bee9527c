package mat

// dotPack4x4 computes four 4-lane dot products over a shared k dimension:
// out[4j+l] = Σ_t pack[4t+l]·bj[t]. Implemented in gemm_arm64.s with NEON
// fused multiply-adds (VFMLA) — two 2-lane float64 vectors carry each quad
// of packed A rows — so every output element is one ascending-t chain of
// single-rounding steps, bit-identical to scalar evaluation. Callers must have checked the active
// tier and k > 0.
//
// The assembly only dereferences its pointers during the call and retains
// none of them, so the noescape pragma is sound (same argument as the amd64
// kernel: without it every gemmBT call heap-allocates its accumulator
// tile).
//
//go:noescape
func dotPack4x4(pack, b0, b1, b2, b3 *float64, k int, out *[16]float64)

// NEON (ASIMD) is architecturally baseline on arm64, so the packed
// microkernel is always available; the AVX tiers never are.
const (
	haveNEON   = true
	haveAVX2   = false
	haveAVX512 = false
)
