package nn

import (
	"fmt"

	"repro/internal/mat"
)

// This file holds the batched forward: an entire batch of inputs is
// forwarded as one matrix-matrix product per layer (X · Wᵀ, both operands
// walked along contiguous rows) with bias add, activity-mask capture and
// activation fused into the GEMM's row blocks (mat.MulBTIntoEpilogue).
// Every logit is still the same ascending-k dot product plus bias the
// scalar path computes, and the epilogue applies the scalar path's
// per-element expressions after each chain has finished, so batched outputs
// are bit-identical to per-instance Logits/Predict/ActivationPattern — the
// batching buys independent floating-point chains and O(layers)
// allocations per batch, not different arithmetic. The scalar methods are
// the reference the parity tests diff against.

// hiddenEpilogue fills e with the fused hidden-layer epilogue for bias b:
// bias add, optional (z > 0) mask capture into mask, then the network's
// activation — plain ReLU when leak is zero, leaky otherwise. Both kinds
// compute leak·z on the non-positive side (leak = 0 reproduces the -0.0
// bits of the scalar activate's 0·z), so batched outputs match the scalar
// forward bit-for-bit.
func (n *Network) hiddenEpilogue(e *mat.Epilogue, b mat.Vec, mask []bool) {
	*e = mat.Epilogue{Bias: b, Mask: mask, Act: mat.ActLeakyReLU, Leak: n.leak}
	if n.leak == 0 {
		e.Act = mat.ActReLU
	}
}

// stackBatch copies xs into a len(xs)-by-dim matrix, validating every row.
func stackBatch(xs []mat.Vec, dim int, what string) *mat.Dense {
	m := mat.NewDense(len(xs), dim)
	for i, x := range xs {
		if len(x) != dim {
			panic(fmt.Sprintf("nn: %s batch item %d length %d != %d", what, i, len(x), dim))
		}
		m.SetRow(i, x)
	}
	return m
}

// forwardBatch pushes the whole batch through the network, one GEMM per
// layer. When wantMasks is true it also records each instance's concatenated
// hidden-layer activity mask (the activation pattern indexing its locally
// linear region). The returned matrix holds one row of logits per instance.
func (n *Network) forwardBatch(xs []mat.Vec, wantMasks bool) (*mat.Dense, [][]bool) {
	B := len(xs)
	var masks [][]bool
	var maskBuf []bool
	if wantMasks {
		hidden, widest := 0, 0
		for _, h := range n.HiddenSizes() {
			hidden += h
			if h > widest {
				widest = h
			}
		}
		masks = make([][]bool, B)
		for i := range masks {
			masks[i] = make([]bool, 0, hidden)
		}
		maskBuf = make([]bool, B*widest)
	}
	cur := stackBatch(xs, n.InputDim(), "forward")
	last := len(n.layers) - 1
	for li, l := range n.layers {
		z := mat.NewDense(B, l.Out())
		epi := mat.Epilogue{Bias: l.B}
		if li < last {
			var mbuf []bool
			if wantMasks {
				mbuf = maskBuf[:B*l.Out()]
			}
			n.hiddenEpilogue(&epi, l.B, mbuf)
		}
		cur.MulBTIntoEpilogue(l.W, z, &epi)
		if wantMasks && li < last {
			w := l.Out()
			for i := 0; i < B; i++ {
				masks[i] = append(masks[i], epi.Mask[i*w:i*w+w]...)
			}
		}
		cur = z
	}
	return cur, masks
}

// LogitsBatch returns the raw pre-softmax scores of every input, computed
// with one GEMM per layer. Each returned vector is bit-identical to
// Logits(xs[i]); the rows alias one freshly allocated backing matrix.
func (n *Network) LogitsBatch(xs []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return nil
	}
	z, _ := n.forwardBatch(xs, false)
	out := make([]mat.Vec, len(xs))
	for i := range out {
		out[i] = z.RawRow(i)
	}
	return out
}

// PredictBatch returns the softmax class probabilities of every input —
// bit-identical to calling Predict per instance, at one GEMM per layer.
func (n *Network) PredictBatch(xs []mat.Vec) []mat.Vec {
	logits := n.LogitsBatch(xs)
	out := make([]mat.Vec, len(logits))
	for i, z := range logits {
		out[i] = Softmax(z)
	}
	return out
}

// ActivationPatternBatch returns every input's activation pattern (the
// concatenated hidden-layer ReLU masks), identical to per-instance
// ActivationPattern but computed via the batched forward.
func (n *Network) ActivationPatternBatch(xs []mat.Vec) [][]bool {
	if len(xs) == 0 {
		return nil
	}
	_, masks := n.forwardBatch(xs, true)
	return masks
}

// LogitsBatch is the MaxoutNetwork batched forward: per hidden layer, each
// affine piece is one GEMM over the whole batch and the elementwise max is
// taken across the piece outputs, first-piece-wins on ties exactly like the
// scalar forward. Outputs are bit-identical to per-instance Logits.
func (n *MaxoutNetwork) LogitsBatch(xs []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return nil
	}
	z, _ := n.forwardBatchMaxout(xs, false)
	out := make([]mat.Vec, len(xs))
	for i := range out {
		out[i] = z.RawRow(i)
	}
	return out
}

// PredictBatch returns softmax probabilities for every input, bit-identical
// to per-instance Predict.
func (n *MaxoutNetwork) PredictBatch(xs []mat.Vec) []mat.Vec {
	logits := n.LogitsBatch(xs)
	out := make([]mat.Vec, len(logits))
	for i, z := range logits {
		out[i] = Softmax(z)
	}
	return out
}

// WinnerPatternBatch returns every input's winner pattern (which piece wins
// at each hidden unit), identical to per-instance WinnerPattern.
func (n *MaxoutNetwork) WinnerPatternBatch(xs []mat.Vec) [][]int {
	if len(xs) == 0 {
		return nil
	}
	_, winners := n.forwardBatchMaxout(xs, true)
	return winners
}

// forwardBatchMaxout runs the batch through all hidden MaxOut layers and the
// linear read-out. When wantWinners is true it records each instance's
// concatenated winning-piece indices.
func (n *MaxoutNetwork) forwardBatchMaxout(xs []mat.Vec, wantWinners bool) (*mat.Dense, [][]int) {
	B := len(xs)
	var winners [][]int
	if wantWinners {
		total := 0
		for _, l := range n.hidden {
			total += l.Out()
		}
		winners = make([][]int, B)
		for i := range winners {
			winners[i] = make([]int, 0, total)
		}
	}
	cur := stackBatch(xs, n.InputDim(), "maxout forward")
	for _, l := range n.hidden {
		// One GEMM per piece over the whole batch, the bias riding inside
		// the GEMM's epilogue (identity activation — the max fold below is
		// the nonlinearity).
		outs := make([]*mat.Dense, l.K())
		for p, piece := range l.Pieces {
			zp := mat.NewDense(B, l.Out())
			epi := mat.Epilogue{Bias: piece.B}
			cur.MulBTIntoEpilogue(piece.W, zp, &epi)
			outs[p] = zp
		}
		h := mat.NewDense(B, l.Out())
		for i := 0; i < B; i++ {
			hrow := h.RawRow(i)
			best := outs[0].RawRow(i)
			if !wantWinners {
				copy(hrow, best)
				for p := 1; p < l.K(); p++ {
					prow := outs[p].RawRow(i)
					for j, v := range prow {
						if v > hrow[j] {
							hrow[j] = v
						}
					}
				}
				continue
			}
			win := make([]int, l.Out())
			copy(hrow, best)
			for p := 1; p < l.K(); p++ {
				prow := outs[p].RawRow(i)
				for j, v := range prow {
					if v > hrow[j] {
						hrow[j] = v
						win[j] = p
					}
				}
			}
			winners[i] = append(winners[i], win...)
		}
		cur = h
	}
	z := mat.NewDense(B, n.out.Out())
	epi := mat.Epilogue{Bias: n.out.B}
	cur.MulBTIntoEpilogue(n.out.W, z, &epi)
	return z, winners
}
