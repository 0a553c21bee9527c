package mat

import "math"

// This file holds the level-2 kernels of the LU (lu.go): the rank-1 and
// rank-4 column updates of the panel and the block-row solve (subScaled,
// subScaled4) and the row updates of the triangular solves (subDotCols).
// Each output element is its own chain of one fused step per term, d =
// fma(−a, v, d), in a fixed order, so the vector tiers put elements — or
// right-hand-side columns — in lanes and keep every chain as it is: the
// bits do not depend on the tier (DESIGN.md §18, §20). The Go loops below
// are the scalar tier, the remainders of the vector ones and the
// reference the parity tests hold the kernels to.

// subScaled sets dst[k] −= a·v[k], one fused step: fma(−a, v[k], dst[k]).
func subScaled(dst, v []float64, a float64) {
	v = v[:len(dst)]
	k := 0
	switch tier := ActiveKernelTier(); {
	case tier >= TierAVX512 && len(dst) >= 8:
		k = len(dst) &^ 7
		subScaledAVX512(&dst[0], &v[0], k, -a)
	case tier >= TierAVX2 && len(dst) >= 4:
		k = len(dst) &^ 3
		subScaledAVX2(&dst[0], &v[0], k, -a)
	}
	subScaledGo(dst[k:], v[k:], a)
}

func subScaledGo(dst, v []float64, a float64) {
	v = v[:len(dst)]
	na := -a
	for k, x := range v {
		dst[k] = math.FMA(na, x, dst[k])
	}
}

// subScaled4 sets dst[k] = dst[k] − a0·v0[k] − a1·v1[k] − a2·v2[k] −
// a3·v3[k], one fused step per term in that order: four consecutive
// subScaled calls, bit for bit, with one load and store of dst instead of
// four.
func subScaled4(dst, v0, v1, v2, v3 []float64, a0, a1, a2, a3 float64) {
	v0, v1, v2, v3 = v0[:len(dst)], v1[:len(dst)], v2[:len(dst)], v3[:len(dst)]
	k := 0
	switch tier := ActiveKernelTier(); {
	case tier >= TierAVX512 && len(dst) >= 8:
		k = len(dst) &^ 7
		subScaled4AVX512(&dst[0], &v0[0], &v1[0], &v2[0], &v3[0], k, -a0, -a1, -a2, -a3)
	case tier >= TierAVX2 && len(dst) >= 4:
		k = len(dst) &^ 3
		subScaled4AVX2(&dst[0], &v0[0], &v1[0], &v2[0], &v3[0], k, -a0, -a1, -a2, -a3)
	}
	subScaled4Go(dst[k:], v0[k:], v1[k:], v2[k:], v3[k:], a0, a1, a2, a3)
}

func subScaled4Go(dst, v0, v1, v2, v3 []float64, a0, a1, a2, a3 float64) {
	v0, v1, v2, v3 = v0[:len(dst)], v1[:len(dst)], v2[:len(dst)], v3[:len(dst)]
	na0, na1, na2, na3 := -a0, -a1, -a2, -a3
	for k, d := range dst {
		d = math.FMA(na0, v0[k], d)
		d = math.FMA(na1, v1[k], d)
		d = math.FMA(na2, v2[k], d)
		d = math.FMA(na3, v3[k], d)
		dst[k] = d
	}
}

// subDotCols sets dst[c] −= Σ_j l[j]·x[j·stride+c] for every column c of
// dst, one fused step per term in ascending j: row i of a triangular solve
// over a row-major right-hand side, x_i −= L[i,:]·X. The columns are
// independent chains, so the vector tiers run them in lanes; a single
// column is one latency-bound chain with no lanes to fill, and stays on
// the Go loop.
func subDotCols(dst, l, x []float64, stride int) {
	w := len(dst)
	if w == 0 || len(l) == 0 {
		return
	}
	_ = x[(len(l)-1)*stride+w-1] // the last element the kernels read
	c := 0
	switch tier := ActiveKernelTier(); {
	case w == 1:
		// One latency-bound chain: no lanes to fill.
	case tier >= TierAVX512:
		for ; c < w; c += 16 {
			subDotCols16AVX512(&dst[c], &l[0], &x[c], len(l), stride, min(16, w-c))
		}
		return
	case tier >= TierAVX2:
		for ; c+4 <= w; c += 4 {
			subDotCols4AVX2(&dst[c], &l[0], &x[c], len(l), stride)
		}
	}
	subDotColsGo(dst[c:], l, x[c:], stride)
}

func subDotColsGo(dst, l, x []float64, stride int) {
	if stride == 1 && len(dst) == 1 {
		// One right-hand side: x is a contiguous vector, and ranging over
		// it drops the per-term index arithmetic and bounds checks.
		s, y := dst[0], x[:len(l)]
		for j, lj := range l {
			s = math.FMA(-lj, y[j], s)
		}
		dst[0] = s
		return
	}
	c := 0
	for ; c+4 <= len(dst); c += 4 {
		s0, s1, s2, s3 := dst[c], dst[c+1], dst[c+2], dst[c+3]
		for j, lj := range l {
			y := x[j*stride+c : j*stride+c+4 : j*stride+c+4]
			nl := -lj
			s0 = math.FMA(nl, y[0], s0)
			s1 = math.FMA(nl, y[1], s1)
			s2 = math.FMA(nl, y[2], s2)
			s3 = math.FMA(nl, y[3], s3)
		}
		dst[c], dst[c+1], dst[c+2], dst[c+3] = s0, s1, s2, s3
	}
	for ; c < len(dst); c++ {
		s := dst[c]
		for j, lj := range l {
			s = math.FMA(-lj, x[j*stride+c], s)
		}
		dst[c] = s
	}
}
