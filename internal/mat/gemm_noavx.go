//go:build !amd64

package mat

// The AVX2 and AVX-512 kernels exist only on amd64. Elsewhere the dispatch
// never selects their tiers (haveAVX2 and haveAVX512 are false), so these
// stand-ins only satisfy the compiler.

func dotPack8x4(pack, b0, b1, b2, b3 *float64, k int, out *[32]float64) { panic("mat: no AVX-512") }

func dotPack16x4(pack, b0, b1, b2, b3 *float64, k int, out *[64]float64) { panic("mat: no AVX-512") }

func dotRow8(a, b *float64, k int, out *[8]float64) { panic("mat: no AVX2") }

func subScaledAVX2(dst, v *float64, n int, na float64) { panic("mat: no AVX2") }

func subScaledAVX512(dst, v *float64, n int, na float64) { panic("mat: no AVX-512") }

func subScaled4AVX2(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64) {
	panic("mat: no AVX2")
}

func subScaled4AVX512(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64) {
	panic("mat: no AVX-512")
}

func subDotCols4AVX2(dst, l, x *float64, nl, stride int) { panic("mat: no AVX2") }

func subDotCols16AVX512(dst, l, x *float64, nl, stride, w int) { panic("mat: no AVX-512") }
