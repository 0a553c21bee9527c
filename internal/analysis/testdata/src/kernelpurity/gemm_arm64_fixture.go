// Fixtures mirroring the pure-Go fallbacks that stand in for the arm64
// (gemm_arm64.s) and noasm microkernels. Type-checked under
// "repro/internal/mat"; the file name starts with "gemm" so the analyzer
// scopes it as kernel code.
package a

import "math"

// The fallback shape the NEON kernel must match: one ascending-t chain of
// fused steps per packed lane, as VFMLA takes them.
func dotPackFallback(pack, b0 []float64, k int, out *[4]float64) {
	var s0, s1 float64
	for t := 0; t < k; t++ {
		s0 = math.FMA(pack[4*t], b0[t], s0)
		s1 = math.FMA(pack[4*t+1], b0[t], s1)
	}
	out[0] = s0
	out[1] = s1
}

// A fused chain run backwards reorders the steps like a += chain does.
func dotPackFusedDescending(pack, b0 []float64, k int) float64 {
	var s float64
	for t := k - 1; t >= 0; t-- { // want "descending-index accumulation reorders the additions"
		s = math.FMA(pack[4*t], b0[t], s)
	}
	return s
}

// Two fused chains of one element recombined at the end reassociate it.
func dotPackFusedSplit(a, b []float64) float64 {
	var s0, s1 float64
	for k := 0; k+1 < len(a); k += 2 {
		s0 = math.FMA(a[k], b[k], s0)
		s1 = math.FMA(a[k+1], b[k+1], s1)
	}
	return s0 + s1 // want "adding partial sums s0 and s1 reassociates the reduction"
}

// A math.FMA whose addend is not the destination accumulates nothing: a
// descending loop of independent fused steps reorders no chain.
func scaleRowsDescending(dst, v []float64, a, c float64) {
	for k := len(dst) - 1; k >= 0; k-- {
		dst[k] = math.FMA(a, v[k], c)
	}
}
