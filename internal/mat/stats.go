package mat

import (
	"math"
	"sort"
)

// Summary holds order statistics of a sample; it backs the error bars the
// paper draws in Figures 6 and 7 (mean marker with min/max whiskers).
type Summary struct {
	N          int
	Mean       float64
	Min, Max   float64
	StdDev     float64
	Median     float64
	Q25, Q75   float64
	Sum        float64
	AbsMaxElem float64
}

// Summarize computes a Summary of xs. NaN entries are dropped; an empty or
// all-NaN input yields a zero Summary with N == 0.
func Summarize(xs []float64) Summary {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	var s Summary
	s.N = len(clean)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	for _, x := range clean {
		s.Sum += x
		if a := math.Abs(x); a > s.AbsMaxElem {
			s.AbsMaxElem = a
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range clean {
		dx := x - s.Mean
		ss = math.FMA(dx, dx, ss)
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Quantile(sorted, 0.5)
	s.Q25 = Quantile(sorted, 0.25)
	s.Q75 = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of sorted, using linear
// interpolation between order statistics. sorted must be ascending and
// non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("mat: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := float64(q * float64(n-1)) // rounded here, so frac below cannot fuse with it
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return math.FMA(sorted[hi], frac, sorted[lo]*(1-frac))
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]. Values
// outside the range are clamped into the first/last bin. It panics if
// nbins <= 0 or hi <= lo.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 {
		panic("mat: Histogram needs nbins > 0")
	}
	if hi <= lo {
		panic("mat: Histogram needs hi > lo")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// MeanVec returns the entrywise mean of the given equal-length vectors.
// It panics on an empty argument list or ragged lengths.
func MeanVec(vs []Vec) Vec {
	if len(vs) == 0 {
		panic("mat: MeanVec of empty set")
	}
	out := make(Vec, len(vs[0]))
	for _, v := range vs {
		if len(v) != len(out) {
			panic("mat: MeanVec ragged input")
		}
		out.AddInPlace(v)
	}
	return out.ScaleInPlace(1 / float64(len(vs)))
}
