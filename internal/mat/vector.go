// Package mat provides the dense linear-algebra substrate used by the
// OpenAPI reproduction: vectors, row-major matrices, LU factorization with
// partial pivoting, Householder QR least squares, and the consistency tests
// the interpreter needs to decide whether an overdetermined system has an
// exact solution.
//
// The package is deliberately self-contained (stdlib only) and tuned for the
// sizes the paper works at: square systems of order d+1 where d is the input
// dimensionality (784 for the image workloads).
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible shapes")

// ErrSingular is returned when a factorization meets an (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// Vec is a dense vector. It is a named slice type so that methods read
// naturally at call sites (v.Dot(w), v.Norm2(), ...). A Vec of length zero is
// valid and behaves as the empty vector.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec {
	return make(Vec, n)
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x and returns v.
func (v Vec) Fill(x float64) Vec {
	for i := range v {
		v[i] = x
	}
	return v
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s = math.FMA(x, w[i], s)
	}
	return s
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Add length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = x + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = x - w[i]
	}
	return out
}

// AddInPlace sets v = v + w and returns v.
func (v Vec) AddInPlace(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: AddInPlace length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// SubInPlace sets v = v - w and returns v.
func (v Vec) SubInPlace(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: SubInPlace length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale returns a*v as a new vector.
func (v Vec) Scale(a float64) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = a * x
	}
	return out
}

// ScaleInPlace sets v = a*v and returns v.
func (v Vec) ScaleInPlace(a float64) Vec {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Axpy sets v = v + a*w and returns v.
func (v Vec) Axpy(a float64, w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] = math.FMA(a, w[i], v[i])
	}
	return v
}

// Norm1 returns the L1 norm of v.
func (v Vec) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow by
// scaling with the largest magnitude entry.
func (v Vec) Norm2() float64 {
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		r := x / maxAbs
		s = math.FMA(r, r, s)
	}
	return maxAbs * math.Sqrt(s)
}

// NormInf returns the maximum absolute entry of v.
func (v Vec) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// ArgMax returns the index of the largest entry (first on ties), or -1 for
// an empty vector.
func (v Vec) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest entry (first on ties), or -1 for
// an empty vector.
func (v Vec) ArgMin() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}

// Max returns the largest entry of v. It panics on an empty vector.
func (v Vec) Max() float64 {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	return v[v.ArgMax()]
}

// Min returns the smallest entry of v. It panics on an empty vector.
func (v Vec) Min() float64 {
	if len(v) == 0 {
		panic("mat: Min of empty vector")
	}
	return v[v.ArgMin()]
}

// L1Dist returns the L1 distance between v and w.
func (v Vec) L1Dist(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: L1Dist length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += math.Abs(x - w[i])
	}
	return s
}

// L2Dist returns the Euclidean distance between v and w.
func (v Vec) L2Dist(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: L2Dist length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		dx := x - w[i]
		s = math.FMA(dx, dx, s)
	}
	return math.Sqrt(s)
}

// LInfDist returns the Chebyshev distance between v and w.
func (v Vec) LInfDist(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: LInfDist length mismatch %d vs %d", len(v), len(w)))
	}
	var m float64
	for i, x := range v {
		if d := math.Abs(x - w[i]); d > m {
			m = d
		}
	}
	return m
}

// Cosine returns the cosine similarity between v and w. If either vector has
// zero norm the similarity is defined as 0, except when both are zero, in
// which case it is 1 (identical interpretations).
func (v Vec) Cosine(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Cosine length mismatch %d vs %d", len(v), len(w)))
	}
	nv, nw := v.Norm2(), w.Norm2()
	if nv == 0 && nw == 0 {
		return 1
	}
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// HasNaN reports whether any entry of v is NaN or infinite.
func (v Vec) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// EqualApprox reports whether v and w agree entrywise within tol
// (absolute-plus-relative: |v_i-w_i| <= tol*(1+|v_i|+|w_i|)).
func (v Vec) EqualApprox(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-w[i]) > tol*(1+math.Abs(x)+math.Abs(w[i])) {
			return false
		}
	}
	return true
}
