// Package sample provides the randomized instance generators the paper's
// interpreters rely on: independent uniform sampling inside an axis-aligned
// hypercube (Lemma 1's precondition), ZOO-style symmetric axis probes, and a
// few general-purpose helpers. All randomness flows through an explicit
// *rand.Rand so every experiment is bit-reproducible.
package sample

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// Hypercube describes the axis-aligned cube {p : |p_i - Center_i| <= Edge/2}.
// The paper defines the neighbourhood of x as the hypercube of edge length r
// centred at x (§IV-B defines it via |p_i - x_i| <= r; we follow the
// algorithm's usage where r is the edge length and halving r halves the
// neighbourhood).
type Hypercube struct {
	Center mat.Vec
	Edge   float64
}

// NewHypercube returns the hypercube of the given edge length around center.
// It panics if edge is negative.
func NewHypercube(center mat.Vec, edge float64) Hypercube {
	if edge < 0 {
		panic(fmt.Sprintf("sample: negative edge %g", edge))
	}
	return Hypercube{Center: center.Clone(), Edge: edge}
}

// Dim returns the dimensionality of the cube.
func (h Hypercube) Dim() int { return len(h.Center) }

// Contains reports whether p lies inside the cube (closed boundary).
func (h Hypercube) Contains(p mat.Vec) bool {
	if len(p) != len(h.Center) {
		return false
	}
	half := h.Edge / 2
	for i, c := range h.Center {
		d := p[i] - c
		if d > half || d < -half {
			return false
		}
	}
	return true
}

// Sample draws one point independently and uniformly from the cube.
func (h Hypercube) Sample(rng *rand.Rand) mat.Vec {
	p := make(mat.Vec, len(h.Center))
	half := h.Edge / 2
	for i, c := range h.Center {
		p[i] = c + (2*rng.Float64()-1)*half
	}
	return p
}

// SampleN draws n independent uniform points from the cube.
func (h Hypercube) SampleN(rng *rand.Rand, n int) []mat.Vec {
	out := make([]mat.Vec, n)
	for i := range out {
		out[i] = h.Sample(rng)
	}
	return out
}

// AxisPairs returns the 2d points x ± h·e_i used by ZOO's symmetric
// difference quotients: result[i][0] = x + h e_i, result[i][1] = x - h e_i.
func AxisPairs(x mat.Vec, h float64) [][2]mat.Vec {
	out := make([][2]mat.Vec, len(x))
	for i := range x {
		plus := x.Clone()
		minus := x.Clone()
		plus[i] += h
		minus[i] -= h
		out[i] = [2]mat.Vec{plus, minus}
	}
	return out
}

// GaussianVec draws a d-dimensional vector with N(mean, sd^2) entries.
func GaussianVec(rng *rand.Rand, d int, mean, sd float64) mat.Vec {
	v := make(mat.Vec, d)
	for i := range v {
		v[i] = mean + sd*rng.NormFloat64()
	}
	return v
}

// Perm returns a random permutation of [0, n).
func Perm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// LinearPath returns steps+1 points evenly spaced from a to b inclusive, the
// integration path of Integrated Gradients.
func LinearPath(a, b mat.Vec, steps int) []mat.Vec {
	if len(a) != len(b) {
		panic(fmt.Sprintf("sample: LinearPath length mismatch %d vs %d", len(a), len(b)))
	}
	if steps < 1 {
		panic("sample: LinearPath needs steps >= 1")
	}
	out := make([]mat.Vec, steps+1)
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		p := make(mat.Vec, len(a))
		for i := range p {
			p[i] = a[i] + t*(b[i]-a[i])
		}
		out[s] = p
	}
	return out
}
