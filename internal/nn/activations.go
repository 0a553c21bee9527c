// Package nn implements the piecewise linear neural network (PLNN) substrate
// of the paper: a fully connected ReLU network with a softmax read-out,
// trained by mini-batch SGD. Because every activation is piecewise linear,
// the network is a PLM by construction — inside the region selected by an
// activation pattern the logits are an exact affine function of the input,
// which is what the OpenBox extractor (internal/openbox) recovers as ground
// truth for the experiments.
package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// ReLUMask returns the 0/1 activity mask of x: 1 where x > 0.
// The concatenated masks of all hidden layers form the activation pattern
// that indexes the locally linear region of the PLNN.
func ReLUMask(x mat.Vec) []bool {
	m := make([]bool, len(x))
	for i, v := range x {
		m[i] = v > 0
	}
	return m
}

// Softmax returns the softmax of z with the max-subtraction trick, so it is
// finite for any finite input. The output sums to 1.
func Softmax(z mat.Vec) mat.Vec {
	return SoftmaxInto(make(mat.Vec, len(z)), z)
}

// SoftmaxInto writes softmax(z) into dst, which must have the same length
// and may alias z, and returns dst. Softmax delegates here, so the two are
// bit-identical by construction — a contract the training parity tests
// rely on; the variant exists so the batched training path can reuse one
// row buffer per mini-batch instead of allocating per sample.
func SoftmaxInto(dst, z mat.Vec) mat.Vec {
	if len(dst) != len(z) {
		panic(fmt.Sprintf("nn: SoftmaxInto dst length %d != %d", len(dst), len(z)))
	}
	if len(z) == 0 {
		return dst
	}
	m := z.Max()
	var sum float64
	for i, v := range z {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// CrossEntropy returns -log(p[label]) with a floor to avoid -Inf on
// saturated probabilities.
func CrossEntropy(p mat.Vec, label int) float64 {
	const floor = 1e-300
	v := p[label]
	if v < floor {
		v = floor
	}
	return -math.Log(v)
}
