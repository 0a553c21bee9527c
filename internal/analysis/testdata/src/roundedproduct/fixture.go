package a

func dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i] // want "float product feeding an add or subtract"
	}
	return s
}

func axpy(dst, v []float64, a float64) {
	for i := range dst {
		dst[i] -= a * v[i] // want "convert it: float64"
	}
}

func affine(a, b, c float64) (float64, float64, float64) {
	return a*b + c, // want "float product"
		c - (a * b), // want "float product"
		a*b - c // want "float product"
}

func narrow(a, b, c float32) float32 {
	return c + a*b // want "convert it: float32"
}

// The sanctioned shapes: the conversion rounds the product first.
func rounded(x, y []float64, a, c float64) float64 {
	var s float64
	for i := range x {
		s += float64(x[i] * y[i])
	}
	return s + float64(a*c) - float64(a*a)
}

// Products that feed no add or subtract, integer products and constant
// products cannot be fused.
func notFusable(a, b float64, i, j int) (float64, int, float64) {
	const half = 0.5
	return a * b / 2, i*j + 1, a + 2*half
}
