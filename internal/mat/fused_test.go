package mat

import (
	"fmt"
	"math"
	"testing"
)

// The fused contract: every product-accumulate step of every kernel is one
// fused multiply-add, rounded once (DESIGN.md §20). These operands tell
// the two roundings from one: with a = 1+2⁻³⁰ and b = 1−2⁻³⁰, a·b = 1−2⁻⁶⁰
// exactly, so fma(a, b, −1) = −2⁻⁶⁰, while round(round(a·b) − 1) = 0. A
// lane that multiplies and adds in two roundings gives 0 every time.
const (
	fusedA = 1 + 0x1p-30
	fusedB = 1 - 0x1p-30
	fusedK = 6 // GEMM chain length: three (−1·1, a·b) step pairs
)

// fusedOperand is row r of a GEMM operand whose every chain ends on
// −2⁻⁶⁰: even steps contribute −1·1 = −1, odd steps a·b, so each
// (even, odd) pair leaves fma(a, b, −1) = −2⁻⁶⁰ fused and 0 unfused.
func fusedOperand(rows int, even, odd float64) *Dense {
	m := NewDense(rows, fusedK)
	for i := 0; i < rows; i++ {
		for t := 0; t < fusedK; t++ {
			v := even
			if t%2 == 1 {
				v = odd
			}
			m.Set(i, t, v)
		}
	}
	return m
}

func wantBits(t *testing.T, got []float64, want float64, label string) {
	t.Helper()
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s: [%d] = %g, want %g (one rounding per step)", label, i, v, want)
		}
	}
}

// TestFusedContractGemmAllTiers runs gemmBT on every tier over a shape that
// reaches every rung — 29 rows are one 16-row, one 8-row and one 4-row
// pack plus a single row (on the scalar tier: seven 4x2 tiles and a row),
// 7 columns a 4-column block and a 3-column tail — in both store modes,
// and MulVecInto's one-row tile over 15 columns: a dotRow8 block on the
// AVX tiers, then the Go tile's four chains and three single ones.
func TestFusedContractGemmAllTiers(t *testing.T) {
	a := fusedOperand(29, -1, fusedA)
	b := fusedOperand(7, 1, fusedB)
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		dst := NewDense(29, 7)
		gemmBT(dst, a.lhs(), b, 0, 29, nil, false)
		wantBits(t, dst.data, -0x1p-60, tier.String()+" gemmBT")
		dst = NewDense(29, 7)
		gemmBT(dst, a.lhs(), b, 0, 29, nil, true)
		wantBits(t, dst.data, 0x1p-60, tier.String()+" gemmBT sub")
		got := fusedOperand(15, 1, fusedB).MulVecInto(a.RawRow(0), make(Vec, 15))
		wantBits(t, got, -0x1p-60, tier.String()+" MulVecInto")
	})
}

// TestFusedContractLevel2AllTiers runs the LU's level-2 kernels on every
// tier at lengths that leave each vector width a Go remainder: each
// element is 1 − a·b, fused 2⁻⁶⁰ and unfused 0. subScaled4 is checked
// with each of its four terms as the distinguishing one, the others 0.
func TestFusedContractLevel2AllTiers(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, n := range []int{1, 3, 4, 7, 8, 15, 23} {
			ones := func() []float64 {
				d := make([]float64, n)
				for i := range d {
					d[i] = 1
				}
				return d
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = fusedB
			}
			dst := ones()
			subScaled(dst, v, fusedA)
			wantBits(t, dst, 0x1p-60, fmt.Sprintf("%s subScaled n=%d", tier, n))
			for p := 0; p < 4; p++ {
				var as [4]float64
				as[p] = fusedA
				dst := ones()
				subScaled4(dst, v, v, v, v, as[0], as[1], as[2], as[3])
				wantBits(t, dst, 0x1p-60, fmt.Sprintf("%s subScaled4 n=%d term %d", tier, n, p))
			}
			// subDotCols: three terms per column, the last one a·b.
			for _, stride := range []int{n, n + 3} {
				l := []float64{0, 0, fusedA}
				x := make([]float64, 2*stride+n)
				copy(x[2*stride:], v)
				dst := ones()
				subDotCols(dst, l, x, stride)
				wantBits(t, dst, 0x1p-60, fmt.Sprintf("%s subDotCols w=%d stride=%d", tier, n, stride))
			}
		}
	})
}

// TestFusedContractAssemblyKernels calls every assembly kernel the CPU can
// run directly, whole blocks only, so no Go remainder can stand in for it.
func TestFusedContractAssemblyKernels(t *testing.T) {
	if !haveAVX2 && !haveNEON && !haveAVX512 {
		t.Skip("no assembly kernel on this CPU")
	}
	packed := func(rows int) []float64 {
		p := make([]float64, rows*fusedK)
		for tt := 0; tt < fusedK; tt++ {
			for l := 0; l < rows; l++ {
				p[rows*tt+l] = -1
				if tt%2 == 1 {
					p[rows*tt+l] = fusedA
				}
			}
		}
		return p
	}
	brow := fusedOperand(1, 1, fusedB).RawRow(0)
	b0 := &brow[0]
	var out [64]float64
	if haveAVX2 {
		rows := fusedOperand(8, 1, fusedB)
		a := packed(1)
		var row [8]float64
		dotRow8(&a[0], &rows.data[0], fusedK, &row)
		wantBits(t, row[:], -0x1p-60, "dotRow8")
	}
	if haveAVX2 || haveNEON {
		p := packed(4)
		dotPack4x4(&p[0], b0, b0, b0, b0, fusedK, (*[16]float64)(out[:16]))
		wantBits(t, out[:16], -0x1p-60, "dotPack4x4")
	}
	if haveAVX512 {
		p := packed(8)
		dotPack8x4(&p[0], b0, b0, b0, b0, fusedK, (*[32]float64)(out[:32]))
		wantBits(t, out[:32], -0x1p-60, "dotPack8x4")
		p = packed(16)
		dotPack16x4(&p[0], b0, b0, b0, b0, fusedK, &out)
		wantBits(t, out[:], -0x1p-60, "dotPack16x4")
	}
	level2 := []struct {
		name  string
		ok    bool
		lanes int
		ss    func(dst, v *float64, n int, na float64)
		ss4   func(dst, v0, v1, v2, v3 *float64, n int, na0, na1, na2, na3 float64)
	}{
		{"AVX2", haveAVX2, 4, subScaledAVX2, subScaled4AVX2},
		{"AVX512", haveAVX512, 8, subScaledAVX512, subScaled4AVX512},
	}
	for _, k := range level2 {
		if !k.ok {
			continue
		}
		n := 2 * k.lanes
		v := make([]float64, n)
		dst := make([]float64, n)
		for i := range v {
			v[i], dst[i] = fusedB, 1
		}
		k.ss(&dst[0], &v[0], n, -fusedA)
		wantBits(t, dst, 0x1p-60, "subScaled"+k.name)
		for p := 0; p < 4; p++ {
			var as [4]float64
			as[p] = -fusedA
			for i := range dst {
				dst[i] = 1
			}
			k.ss4(&dst[0], &v[0], &v[0], &v[0], &v[0], n, as[0], as[1], as[2], as[3])
			wantBits(t, dst, 0x1p-60, fmt.Sprintf("subScaled4%s term %d", k.name, p))
		}
	}
	// subDotCols kernels: two terms per column, the second a·b.
	l := []float64{0, fusedA}
	x := make([]float64, 32)
	for i := 16; i < 32; i++ {
		x[i] = fusedB
	}
	dst := make([]float64, 16)
	if haveAVX2 {
		for i := range dst {
			dst[i] = 1
		}
		subDotCols4AVX2(&dst[0], &l[0], &x[0], 2, 16)
		wantBits(t, dst[:4], 0x1p-60, "subDotCols4AVX2")
	}
	if haveAVX512 {
		for i := range dst {
			dst[i] = 1
		}
		subDotCols16AVX512(&dst[0], &l[0], &x[0], 2, 16, 16)
		wantBits(t, dst, 0x1p-60, "subDotCols16AVX512")
	}
}
