package nn

import (
	"sync"

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
// batching buys independent floating-point chains, not different
// arithmetic. The scalar methods are the reference the parity tests diff
// against.
//
// The first layer packs its GEMM tiles straight from the input vectors
// (mat.MulRowsBTIntoEpilogue), so the batch is never stacked into a matrix.
// The rest of a forward's working memory — the layer outputs, the epilogue
// and its mask — is a forwardScratch taken from a free list
// owned by this package and given back when the forward returns (DESIGN.md
// §22). The list keeps at most maxFreeScratchBytes between forwards, so a
// served batch allocates only the memory it returns to its caller, and an
// outsized batch's scratch goes to the collector instead of staying
// resident.

// maxFreeScratchBytes caps the bytes the free list holds between forwards:
// the scratch of two 256-row forwards through the paper's image
// architecture (784-256-128-100-10), 786 KB each (DESIGN.md §22).
const maxFreeScratchBytes = 2 << 20

// forwardScratch is one batched forward's working memory. Its matrices keep
// whatever the forward before left in them; every forward writes each
// element it reads before reading it (mat.Dense.Reuse).
type forwardScratch struct {
	act  [2]mat.Dense // layer outputs, alternating by layer index
	tmp  mat.Dense    // a MaxOut piece's output before it folds into act
	mask []bool       // a hidden layer's activity mask, B×width
	epi  mat.Epilogue // the epilogue fused into the current GEMM
}

// bytes returns the memory s holds.
func (s *forwardScratch) bytes() int {
	return 8*(s.act[0].Cap()+s.act[1].Cap()+s.tmp.Cap()) + cap(s.mask)
}

// freeScratch is the free list: most recently released last, so a forward
// takes the warmest scratch. bytes is the sum of the listed scratches'.
var freeScratch struct {
	sync.Mutex
	list  []*forwardScratch
	bytes int
}

// takeScratch returns a scratch from the free list, or an empty one when the
// list is empty.
func takeScratch() *forwardScratch {
	freeScratch.Lock()
	defer freeScratch.Unlock()
	n := len(freeScratch.list)
	if n == 0 {
		return new(forwardScratch)
	}
	s := freeScratch.list[n-1]
	freeScratch.list[n-1] = nil
	freeScratch.list = freeScratch.list[:n-1]
	freeScratch.bytes -= s.bytes()
	return s
}

// release gives s back to the free list, or drops it for the collector when
// the list would then hold more than maxFreeScratchBytes. It clears the
// epilogue first so that no network's bias is kept alive from the list.
func (s *forwardScratch) release() {
	s.epi = mat.Epilogue{}
	b := s.bytes()
	freeScratch.Lock()
	defer freeScratch.Unlock()
	if freeScratch.bytes+b > maxFreeScratchBytes {
		return
	}
	freeScratch.list = append(freeScratch.list, s)
	freeScratch.bytes += b
}

// mul computes dst = X · wᵀ with s.epi fused in, where X is the batch xs
// itself when cur is nil (the first layer, which panics on an input of the
// wrong length before any work) and cur after that.
func (s *forwardScratch) mul(xs []mat.Vec, cur, w, dst *mat.Dense) {
	if cur == nil {
		mat.MulRowsBTIntoEpilogue(xs, w, dst, &s.epi)
		return
	}
	cur.MulBTIntoEpilogue(w, dst, &s.epi)
}

// maskOf returns s's mask buffer resliced to n elements.
func (s *forwardScratch) maskOf(n int) []bool {
	if cap(s.mask) < n {
		s.mask = make([]bool, n)
	}
	return s.mask[:n]
}

// ownedRows copies z's rows into fresh memory the caller owns — their
// softmax when softmax is set — and returns them as one capped slice per
// row of a single backing array.
func ownedRows(z *mat.Dense, softmax bool) []mat.Vec {
	r, c := z.Dims()
	flat := make([]float64, r*c)
	out := make([]mat.Vec, r)
	for i := range out {
		row := mat.Vec(flat[i*c : (i+1)*c : (i+1)*c])
		if softmax {
			SoftmaxInto(row, z.RawRow(i))
		} else {
			copy(row, z.RawRow(i))
		}
		out[i] = row
	}
	return out
}

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

// hiddenUnits returns the total hidden width, the length of one activation
// pattern.
func (n *Network) hiddenUnits() int {
	total := 0
	for _, l := range n.layers[:len(n.layers)-1] {
		total += l.Out()
	}
	return total
}

// forwardBatch pushes the whole batch through the network on scratch s, one
// GEMM per layer, and returns the logits, one row per instance, in s's
// memory. When masks is non-nil it also records each instance's
// concatenated hidden-layer activity mask (the activation pattern indexing
// its locally linear region) as row i of masks, a row-major
// len(xs)-by-hiddenUnits matrix.
func (n *Network) forwardBatch(s *forwardScratch, xs []mat.Vec, masks []bool) *mat.Dense {
	B := len(xs)
	hidden := n.hiddenUnits()
	var cur *mat.Dense
	last := len(n.layers) - 1
	off := 0
	for li, l := range n.layers[:last] {
		w := l.Out()
		z := s.act[li%2].Reuse(B, w)
		var mask []bool
		if masks != nil {
			mask = s.maskOf(B * w)
		}
		n.hiddenEpilogue(&s.epi, l.B, mask)
		s.mul(xs, cur, l.W, z)
		if masks != nil {
			for i := 0; i < B; i++ {
				copy(masks[i*hidden+off:i*hidden+off+w], mask[i*w:i*w+w])
			}
		}
		off += w
		cur = z
	}
	l := n.layers[last]
	z := s.act[last%2].Reuse(B, l.Out())
	s.epi = mat.Epilogue{Bias: l.B}
	s.mul(xs, cur, l.W, z)
	return z
}

// LogitsBatch returns the raw pre-softmax scores of every input, computed
// with one GEMM per layer. Each returned vector is bit-identical to
// Logits(xs[i]). The rows are the caller's: they share one backing array
// allocated for this call, and nothing else refers to it.
func (n *Network) LogitsBatch(xs []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return nil
	}
	s := takeScratch()
	defer s.release()
	return ownedRows(n.forwardBatch(s, xs, nil), false)
}

// PredictBatch returns the softmax class probabilities of every input —
// bit-identical to calling Predict per instance, at one GEMM per layer. Like
// LogitsBatch's, the rows are the caller's.
func (n *Network) PredictBatch(xs []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return []mat.Vec{}
	}
	s := takeScratch()
	defer s.release()
	return ownedRows(n.forwardBatch(s, xs, nil), true)
}

// ActivationPatternBatch returns every input's activation pattern (the
// concatenated hidden-layer ReLU masks), identical to per-instance
// ActivationPattern but computed via the batched forward. The patterns are
// the caller's.
func (n *Network) ActivationPatternBatch(xs []mat.Vec) [][]bool {
	if len(xs) == 0 {
		return nil
	}
	hidden := n.hiddenUnits()
	flat := make([]bool, len(xs)*hidden)
	s := takeScratch()
	defer s.release()
	n.forwardBatch(s, xs, flat)
	masks := make([][]bool, len(xs))
	for i := range masks {
		masks[i] = flat[i*hidden : (i+1)*hidden : (i+1)*hidden]
	}
	return masks
}

// LogitsBatch is the MaxoutNetwork batched forward: per hidden layer, each
// affine piece is one GEMM over the whole batch and the elementwise max is
// taken across the piece outputs, first-piece-wins on ties exactly like the
// scalar forward. Outputs are bit-identical to per-instance Logits, and the
// rows are the caller's.
func (n *MaxoutNetwork) LogitsBatch(xs []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return nil
	}
	s := takeScratch()
	defer s.release()
	return ownedRows(n.forwardBatchMaxout(s, xs, nil), false)
}

// PredictBatch returns softmax probabilities for every input, bit-identical
// to per-instance Predict.
func (n *MaxoutNetwork) PredictBatch(xs []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return []mat.Vec{}
	}
	s := takeScratch()
	defer s.release()
	return ownedRows(n.forwardBatchMaxout(s, xs, nil), true)
}

// WinnerPatternBatch returns every input's winner pattern (which piece wins
// at each hidden unit), identical to per-instance WinnerPattern. The
// patterns are the caller's.
func (n *MaxoutNetwork) WinnerPatternBatch(xs []mat.Vec) [][]int {
	if len(xs) == 0 {
		return nil
	}
	total := n.HiddenUnits()
	flat := make([]int, len(xs)*total)
	s := takeScratch()
	defer s.release()
	n.forwardBatchMaxout(s, xs, flat)
	winners := make([][]int, len(xs))
	for i := range winners {
		winners[i] = flat[i*total : (i+1)*total : (i+1)*total]
	}
	return winners
}

// forwardBatchMaxout runs the batch through all hidden MaxOut layers and the
// linear read-out on scratch s and returns the logits in s's memory. When
// winners is non-nil — a zeroed, row-major len(xs)-by-HiddenUnits matrix —
// it records each instance's concatenated winning-piece indices there.
func (n *MaxoutNetwork) forwardBatchMaxout(s *forwardScratch, xs []mat.Vec, winners []int) *mat.Dense {
	B := len(xs)
	total := n.HiddenUnits()
	var cur *mat.Dense
	off := 0
	for li, l := range n.hidden {
		// One GEMM per piece over the whole batch, the bias riding inside
		// the GEMM's epilogue (identity activation — the max fold below is
		// the nonlinearity). Piece 0 writes the running max directly; each
		// later piece folds in as soon as its GEMM is done, so every
		// element sees its pieces' comparisons in the scalar order.
		w := l.Out()
		h := s.act[li%2].Reuse(B, w)
		s.epi = mat.Epilogue{Bias: l.Pieces[0].B}
		s.mul(xs, cur, l.Pieces[0].W, h)
		zp := s.tmp.Reuse(B, w)
		for p := 1; p < l.K(); p++ {
			s.epi = mat.Epilogue{Bias: l.Pieces[p].B}
			s.mul(xs, cur, l.Pieces[p].W, zp)
			for i := 0; i < B; i++ {
				hrow, prow := h.RawRow(i), zp.RawRow(i)
				if winners == nil {
					for j, v := range prow {
						if v > hrow[j] {
							hrow[j] = v
						}
					}
					continue
				}
				win := winners[i*total+off : i*total+off+w]
				for j, v := range prow {
					if v > hrow[j] {
						hrow[j] = v
						win[j] = p
					}
				}
			}
		}
		off += w
		cur = h
	}
	z := s.act[len(n.hidden)%2].Reuse(B, n.out.Out())
	s.epi = mat.Epilogue{Bias: n.out.B}
	s.mul(xs, cur, n.out.W, z)
	return z
}
