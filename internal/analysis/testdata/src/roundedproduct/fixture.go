package a

import "math"

func dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i] // want "float product feeding an add or subtract must be one fused step"
	}
	return s
}

func axpy(dst, v []float64, a float64) {
	for i := range dst {
		dst[i] -= a * v[i] // want "math.FMA.a, b, c."
	}
}

func affine(a, b, c float64) (float64, float64, float64) {
	return a*b + c, // want "float product"
		c - (a * b), // want "float product"
		a*b - c // want "float product"
}

func narrow(a, b, c float32) float32 {
	return c + a*b // want "float product"
}

// A conversion rounds the product before the add: two roundings per step,
// where every kernel tier takes one.
func roundedFirst(x, y []float64, a, c float64) float64 {
	var s float64
	for i := range x {
		s += float64(x[i] * y[i]) // want "float product"
	}
	s += float64(a * c)         // want "float product"
	return s - (float64(a * a)) // want "float product"
}

// The sanctioned shape: one fused step per product. Products that are
// arguments of math.FMA feed no add of their own.
func fused(x, y []float64, a, c float64) (float64, float64) {
	var s float64
	for i := range x {
		s = math.FMA(x[i], y[i], s)
	}
	return s, math.FMA(-a, c, a*a)
}

// Products that feed no add or subtract, integer products, constant
// products and conversions of a non-product cannot be fused.
func notFusable(a, b float64, i, j int) (float64, int, float64, float64) {
	const half = 0.5
	return a * b / 2, i*j + 1, a + 2*half, a + float64(i)
}
