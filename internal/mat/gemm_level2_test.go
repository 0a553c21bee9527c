package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func sameBits(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], v)
		}
	}
}

// TestLevel2KernelsTierParity holds the LU's level-2 kernels to their Go
// loops on every tier, for every length 0..37 (each vector width's blocks
// and remainders): subScaled and subScaled4 elementwise, and subDotCols
// for widths 0..37 against row counts 0..9 at strides past the width, as
// the triangular solves call it.
func TestLevel2KernelsTierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for n := 0; n <= 37; n++ {
			dst, v0, v1, v2, v3 := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
			a := randSlice(rng, 4)

			got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
			subScaled(got, v0, a[0])
			subScaledGo(want, v0, a[0])
			sameBits(t, got, want, tier.String()+" subScaled")

			got, want = append(got[:0], dst...), append(want[:0], dst...)
			subScaled4(got, v0, v1, v2, v3, a[0], a[1], a[2], a[3])
			subScaled4Go(want, v0, v1, v2, v3, a[0], a[1], a[2], a[3])
			sameBits(t, got, want, tier.String()+" subScaled4")
			// subScaled4 is four subScaled calls, in order.
			for _, s := range []struct {
				v []float64
				a float64
			}{{v0, a[0]}, {v1, a[1]}, {v2, a[2]}, {v3, a[3]}} {
				subScaledGo(dst, s.v, s.a)
			}
			sameBits(t, got, dst, tier.String()+" subScaled4 as four subScaled")

			for _, nl := range []int{0, 1, 2, 5, 9} {
				for _, stride := range []int{n, n + 3} {
					l, x := randSlice(rng, nl), randSlice(rng, max(0, (nl-1)*stride+n))
					row := randSlice(rng, n)
					got, want := append([]float64(nil), row...), append([]float64(nil), row...)
					subDotCols(got, l, x, stride)
					subDotColsGo(want, l, x, stride)
					sameBits(t, got, want, tier.String()+" subDotCols")
					// Column by column, the textbook dot-product chain of
					// fused steps.
					for c := range row {
						s := row[c]
						for j, lj := range l {
							s = math.FMA(-lj, x[j*stride+c], s)
						}
						row[c] = s
					}
					sameBits(t, got, row, tier.String()+" subDotCols per column")
				}
			}
		}
	})
}

// TestLevel2KernelsNaNMultiplierTierParity: every tier negates the
// multiplier, not the product, before its fused step, so a NaN multiplier
// leaves the same NaN — sign bit included — on every tier as in the Go
// loops.
func TestLevel2KernelsNaNMultiplierTierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	nan := math.Float64frombits(0xfff8000000000def)
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, n := range []int{4, 8, 13, 16} {
			dst, v := randSlice(rng, n), randSlice(rng, n)
			got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
			subScaled(got, v, nan)
			subScaledGo(want, v, nan)
			sameBits(t, got, want, tier.String()+" subScaled NaN")

			got, want = append(got[:0], dst...), append(want[:0], dst...)
			subScaled4(got, v, v, v, v, 0.5, nan, 2, 3)
			subScaled4Go(want, v, v, v, v, 0.5, nan, 2, 3)
			sameBits(t, got, want, tier.String()+" subScaled4 NaN")

			l, x := []float64{0.5, nan, 2}, randSlice(rng, 2*n+n)
			got, want = append(got[:0], dst...), append(want[:0], dst...)
			subDotCols(got, l, x, n)
			subDotColsGo(want, l, x, n)
			sameBits(t, got, want, tier.String()+" subDotCols NaN")
		}
	})
}
