// Package openbox computes the exact locally linear classifier of a PLNN at
// a given instance from the network's parameters (Chu et al., KDD 2018),
// which the paper uses as ground truth for its PLNN experiments.
//
// For a ReLU network, fixing the activation pattern of an input x turns
// every hidden nonlinearity into a diagonal 0/1 matrix, so the logits become
// an exact affine function  z = W_eff x + b_eff  valid on the whole locally
// linear region containing x. This package folds the layers into (W_eff,
// b_eff), exposes the result as a plm.Linear, and fingerprints the region
// for the Region Difference metric.
package openbox

import (
	"fmt"
	"hash/fnv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/plm"
)

// Extract folds the network's layers at x into the affine map of the
// locally linear region containing x: the activation pattern at x selects
// the region, composeFromPattern folds the layers. A region cache
// (CacheRegionModelOpts) shares one result per pattern between callers, so
// callers must treat the returned Linear as read-only (every consumer in
// this repository does).
func Extract(n *nn.Network, x mat.Vec) (*plm.Linear, error) {
	if len(x) != n.InputDim() {
		return nil, fmt.Errorf("openbox: input length %d != %d", len(x), n.InputDim())
	}
	return composeFromPattern(n, n.ActivationPattern(x))
}

// composeFromPattern folds the network's layers into the closed-form affine
// map (W_eff, b_eff) of the region a full activation pattern selects. The
// chain starts from layer 0's parameters directly (composing with the
// identity would only burn a d-cubed GEMM) and runs every later layer as one
// W_l · curW product on the blocked kernel.
//
// For a Leaky/Parametric ReLU network the inactive side multiplies by the
// negative slope instead of zeroing — still piecewise linear, same region
// structure.
func composeFromPattern(n *nn.Network, pattern []bool) (*plm.Linear, error) {
	L := n.NumLayers()
	total := 0
	for _, h := range n.HiddenSizes() {
		total += h
	}
	if len(pattern) != total {
		return nil, fmt.Errorf("openbox: pattern length %d != %d hidden units", len(pattern), total)
	}
	leak := n.Leak()
	l0 := n.LayerShared(0)
	curW := l0.W.Clone()
	curB := l0.B.Clone()
	off := 0
	applyMask := func(w *mat.Dense, b mat.Vec, width int) {
		mask := pattern[off : off+width]
		off += width
		for r, active := range mask {
			if active {
				continue
			}
			w.RawRow(r).ScaleInPlace(leak)
			b[r] *= leak
		}
	}
	if L > 1 {
		applyMask(curW, curB, l0.Out())
	}
	for li := 1; li < L; li++ {
		l := n.LayerShared(li)
		// Affine composition: z = W_l (curW x + curB) + B_l.
		nextW := l.W.Mul(curW)
		nextB := l.W.MulVec(curB).AddInPlace(l.B)
		if li < L-1 {
			applyMask(nextW, nextB, l.Out())
		}
		curW, curB = nextW, nextB
	}
	return plm.NewLinear(curW, curB, PatternKey(pattern))
}

// PatternKey returns a stable string fingerprint of an activation pattern.
func PatternKey(pattern []bool) string {
	h := fnv.New64a()
	buf := make([]byte, (len(pattern)+7)/8)
	for i, b := range pattern {
		if b {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	h.Write(buf)
	return fmt.Sprintf("plnn-%d-%016x", len(pattern), h.Sum64())
}

// PLNN adapts an nn.Network to the plm.RegionModel interface, giving the
// evaluation harness a uniform white-box view of the network. Wrap it with
// CacheRegionModelOpts to memoize its regions.
type PLNN struct {
	Net *nn.Network
}

var _ plm.PatternRegionModel = (*PLNN)(nil)
var _ plm.BatchPredictor = (*PLNN)(nil)

// Predict returns softmax class probabilities.
func (p *PLNN) Predict(x mat.Vec) mat.Vec { return p.Net.Predict(x) }

// PredictBatch answers the whole batch with one GEMM per layer —
// bit-identical to per-instance Predict. It implements plm.BatchPredictor,
// so api.Server's batch handler and plm.PredictAll pick it up via the usual
// type assertion.
func (p *PLNN) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	for i, x := range xs {
		if len(x) != p.Net.InputDim() {
			return nil, fmt.Errorf("openbox: batch item %d length %d != %d", i, len(x), p.Net.InputDim())
		}
	}
	return p.Net.PredictBatch(xs), nil
}

// Dim returns the network's input dimensionality.
func (p *PLNN) Dim() int { return p.Net.InputDim() }

// Classes returns the number of output classes.
func (p *PLNN) Classes() int { return p.Net.Classes() }

// RegionKey fingerprints the activation pattern at x.
func (p *PLNN) RegionKey(x mat.Vec) string {
	return PatternKey(p.Net.ActivationPattern(x))
}

// LocalAt extracts the locally linear classifier at x.
func (p *PLNN) LocalAt(x mat.Vec) (*plm.Linear, error) { return Extract(p.Net, x) }

// RegionPatterns is the pattern hook: one batched forward yields every
// input's activation pattern, the key is hashed from it, and compose(i)
// folds the layers straight from pattern i.
func (p *PLNN) RegionPatterns(xs []mat.Vec) ([]string, func(int) (*plm.Linear, error), error) {
	for i, x := range xs {
		if len(x) != p.Net.InputDim() {
			return nil, nil, fmt.Errorf("openbox: batch item %d length %d != %d", i, len(x), p.Net.InputDim())
		}
	}
	patterns := p.Net.ActivationPatternBatch(xs)
	keys := make([]string, len(patterns))
	for i, pat := range patterns {
		keys[i] = PatternKey(pat)
	}
	return keys, func(i int) (*plm.Linear, error) { return composeFromPattern(p.Net, patterns[i]) }, nil
}
