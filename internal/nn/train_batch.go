package nn

import (
	"repro/internal/mat"
)

// This file holds the training step: one mini-batch flows through the
// network as matrices, with one GEMM per layer forward (X · Wᵀ, bias and
// activation fused into its epilogue), one transpose-A GEMM per layer for
// the weight gradients (dW = deltaᵀ · activations), and one GEMM per layer
// for delta propagation (delta · W). Every accumulator still sums its terms
// in the order a per-sample loop would — samples within a batch ascending,
// the k dimension of every GEMM ascending — so training produces weights
// bit-identical to the per-sample reference the Train parity tests keep.
// All matrices live in pooled scratch sized once per Train call: a
// steady-state training step allocates nothing, and the per-batch views
// are rebuilt only when the batch size changes (the remainder batch).

// netScratch pools the per-batch matrices of the batched Network step.
type netScratch struct {
	cur int // batch size the views are currently shaped for (-1 = none)

	// Backing matrices allocated at full batch capacity.
	x     *mat.Dense   // batch inputs, B×d
	z     []*mat.Dense // per-layer outputs (post-activation for hidden layers), B×out
	delta []*mat.Dense // per-layer deltas, B×out

	// One reusable epilogue per layer (so the hot loop passes &epis[li]
	// without allocating) and one (z > 0) mask per hidden layer, captured
	// by the epilogue post-bias and consumed by the backward delta scaling
	// in place of the overwritten pre-activations.
	epis []mat.Epilogue
	mask [][]bool // capacity rows·out per hidden layer

	// RowsView(cur) of the backing matrices.
	vx     *mat.Dense
	vz     []*mat.Dense
	vdelta []*mat.Dense
	vmask  [][]bool // mask[:cur·out] per hidden layer
}

func newNetScratch(n *Network, rows int) *netScratch {
	nl := len(n.layers)
	s := &netScratch{
		cur:    -1,
		x:      mat.NewDense(rows, n.InputDim()),
		z:      make([]*mat.Dense, nl),
		delta:  make([]*mat.Dense, nl),
		epis:   make([]mat.Epilogue, nl),
		mask:   make([][]bool, nl-1),
		vz:     make([]*mat.Dense, nl),
		vdelta: make([]*mat.Dense, nl),
		vmask:  make([][]bool, nl-1),
	}
	for i, l := range n.layers {
		s.z[i] = mat.NewDense(rows, l.Out())
		s.delta[i] = mat.NewDense(rows, l.Out())
		if i < nl-1 {
			s.mask[i] = make([]bool, rows*l.Out())
		}
	}
	return s
}

// prepare reshapes the views for a batch of b rows. Views are rebuilt only
// when the batch size changes — at most twice per epoch — so steady-state
// batches allocate nothing.
func (s *netScratch) prepare(b int) {
	if b == s.cur {
		return
	}
	s.cur = b
	s.vx = s.x.RowsView(b)
	for i := range s.z {
		s.vz[i] = s.z[i].RowsView(b)
		s.vdelta[i] = s.delta[i].RowsView(b)
	}
	for i := range s.mask {
		s.vmask[i] = s.mask[i][:b*s.z[i].Cols()]
	}
}

// colSumsInto overwrites dst with the column sums of m, accumulating rows
// in ascending order — the order a per-sample loop adds bias gradients.
func colSumsInto(m *mat.Dense, dst mat.Vec) {
	dst.Fill(0)
	for i := 0; i < m.Rows(); i++ {
		dst.AddInPlace(m.RawRow(i))
	}
}

// accumulateBatch runs one forward/backward pass for a whole mini-batch as
// matrices, overwrites g with the batch-summed parameter gradients, and
// returns the summed cross-entropy loss of the batch. It is bit-identical
// to accumulating the samples one at a time in batch order: each GEMM keeps
// one ascending-k accumulator per output element, and the shared k
// dimension is exactly the dimension a per-sample loop iterates
// sequentially.
func (n *Network) accumulateBatch(s *netScratch, g *gradients, xs []mat.Vec, labels []int, batch []int) float64 {
	b := len(batch)
	s.prepare(b)
	last := len(n.layers) - 1
	for i, idx := range batch {
		s.vx.SetRow(i, xs[idx])
	}

	// Forward. The GEMM epilogue activates z in place and captures the
	// post-bias (z > 0) mask: for every non-NaN value, !mask is exactly the
	// scalar backprop's z <= 0 test (including ±0), so the backward pass
	// below scales the same deltas by the same leak.
	cur := s.vx
	for li, l := range n.layers {
		z := s.vz[li]
		epi := &s.epis[li]
		if li < last {
			n.hiddenEpilogue(epi, l.B, s.vmask[li])
		} else {
			*epi = mat.Epilogue{Bias: l.B}
		}
		cur.MulBTIntoEpilogue(l.W, z, epi)
		cur = z // holds the post-activation in place
	}

	// Softmax + cross-entropy head: delta = p - onehot(label), one row per
	// sample, losses summed in ascending sample order.
	var loss float64
	dlast, zlast := s.vdelta[last], s.vz[last]
	for i := 0; i < b; i++ {
		drow := dlast.RawRow(i)
		SoftmaxInto(drow, zlast.RawRow(i))
		y := labels[batch[i]]
		loss += CrossEntropy(drow, y)
		drow[y] -= 1
	}

	// Backward: per layer, one transpose-A GEMM for dW, one column sum for
	// dB, then one GEMM plus the activation mask for the next delta.
	for i := last; i >= 0; i-- {
		di := s.vdelta[i]
		acts := s.vx
		if i > 0 {
			acts = s.vz[i-1] // activated in place by the forward epilogue
		}
		di.MulATInto(acts, g.dW[i])
		colSumsInto(di, g.dB[i])
		if i > 0 {
			dprev := s.vdelta[i-1]
			di.MulInto(n.layers[i].W, dprev)
			leak := n.leak
			w := dprev.Cols()
			mk := s.vmask[i-1]
			for r := 0; r < b; r++ {
				drow := dprev.RawRow(r)
				for j, on := range mk[r*w : r*w+w] {
					if !on {
						drow[j] *= leak
					}
				}
			}
		}
	}
	return loss
}

// maxoutScratch pools the per-batch matrices of the batched MaxOut step.
type maxoutScratch struct {
	cur int

	x      *mat.Dense   // batch inputs, B×d
	acts   []*mat.Dense // per-hidden-layer post-max activations, B×out
	pieceZ []*mat.Dense // per-layer piece pre-activations, reused per piece
	masked []*mat.Dense // per-layer winner-masked deltas, B×out
	tmp    []*mat.Dense // per-layer (l>0) per-piece delta contributions, B×in
	deltaH []*mat.Dense // per-hidden-layer deltas, B×out
	outZ   *mat.Dense   // read-out logits, B×C
	deltaO *mat.Dense   // read-out delta, B×C

	winners [][][]int // winners[l][i][j]: winning piece of sample i, unit j

	// Reusable bias-only epilogue for the piece/read-out GEMMs (the max
	// fold is the nonlinearity, so the epilogue activation is identity).
	epi mat.Epilogue

	vx      *mat.Dense
	vacts   []*mat.Dense
	vpieceZ []*mat.Dense
	vmasked []*mat.Dense
	vtmp    []*mat.Dense
	vdeltaH []*mat.Dense
	voutZ   *mat.Dense
	vdeltaO *mat.Dense
}

func newMaxoutScratch(n *MaxoutNetwork, rows int) *maxoutScratch {
	nh := len(n.hidden)
	s := &maxoutScratch{
		cur:     -1,
		x:       mat.NewDense(rows, n.InputDim()),
		acts:    make([]*mat.Dense, nh),
		pieceZ:  make([]*mat.Dense, nh),
		masked:  make([]*mat.Dense, nh),
		tmp:     make([]*mat.Dense, nh),
		deltaH:  make([]*mat.Dense, nh),
		outZ:    mat.NewDense(rows, n.out.Out()),
		deltaO:  mat.NewDense(rows, n.out.Out()),
		winners: make([][][]int, nh),
		vacts:   make([]*mat.Dense, nh),
		vpieceZ: make([]*mat.Dense, nh),
		vmasked: make([]*mat.Dense, nh),
		vtmp:    make([]*mat.Dense, nh),
		vdeltaH: make([]*mat.Dense, nh),
	}
	for li, l := range n.hidden {
		s.acts[li] = mat.NewDense(rows, l.Out())
		s.pieceZ[li] = mat.NewDense(rows, l.Out())
		s.masked[li] = mat.NewDense(rows, l.Out())
		s.deltaH[li] = mat.NewDense(rows, l.Out())
		if li > 0 {
			s.tmp[li] = mat.NewDense(rows, l.In())
		}
		s.winners[li] = make([][]int, rows)
		for i := range s.winners[li] {
			s.winners[li][i] = make([]int, l.Out())
		}
	}
	return s
}

func (s *maxoutScratch) prepare(b int) {
	if b == s.cur {
		return
	}
	s.cur = b
	s.vx = s.x.RowsView(b)
	s.voutZ = s.outZ.RowsView(b)
	s.vdeltaO = s.deltaO.RowsView(b)
	for li := range s.acts {
		s.vacts[li] = s.acts[li].RowsView(b)
		s.vpieceZ[li] = s.pieceZ[li].RowsView(b)
		s.vmasked[li] = s.masked[li].RowsView(b)
		s.vdeltaH[li] = s.deltaH[li].RowsView(b)
		if li > 0 {
			s.vtmp[li] = s.tmp[li].RowsView(b)
		}
	}
}

// accumulateBatch is the MaxOut batched forward/backward pass. Forward
// folds each hidden layer's max incrementally — one GEMM per piece over the
// whole batch, first-piece-wins on ties like the scalar forward — while
// capturing every sample's winner indices. Backward routes gradients
// through the captured winners: per piece, the layer delta is masked to the
// units that piece won (losing units contribute exact zeros, which leave
// the ascending-k accumulator chains unchanged), so the piece's weight
// gradient is one transpose-A GEMM and its contribution to the next delta
// is one GEMM, summed piece-ascending exactly like the per-sample
// reference the Train parity tests keep.
func (n *MaxoutNetwork) accumulateBatch(s *maxoutScratch, g *maxoutGradients, xs []mat.Vec, labels []int, batch []int) float64 {
	b := len(batch)
	s.prepare(b)
	for i, idx := range batch {
		s.vx.SetRow(i, xs[idx])
	}

	// Forward: incremental max fold with winner capture.
	cur := s.vx
	for li, l := range n.hidden {
		h := s.vacts[li]
		zp := s.vpieceZ[li]
		for p, piece := range l.Pieces {
			s.epi = mat.Epilogue{Bias: piece.B}
			cur.MulBTIntoEpilogue(piece.W, zp, &s.epi)
			if p == 0 {
				for i := 0; i < b; i++ {
					copy(h.RawRow(i), zp.RawRow(i))
					win := s.winners[li][i]
					for j := range win {
						win[j] = 0
					}
				}
				continue
			}
			for i := 0; i < b; i++ {
				hrow, zrow := h.RawRow(i), zp.RawRow(i)
				win := s.winners[li][i]
				for j, v := range zrow {
					if v > hrow[j] {
						hrow[j] = v
						win[j] = p
					}
				}
			}
		}
		cur = h
	}
	s.epi = mat.Epilogue{Bias: n.out.B}
	cur.MulBTIntoEpilogue(n.out.W, s.voutZ, &s.epi)

	// Softmax + cross-entropy head.
	var loss float64
	for i := 0; i < b; i++ {
		drow := s.vdeltaO.RawRow(i)
		SoftmaxInto(drow, s.voutZ.RawRow(i))
		y := labels[batch[i]]
		loss += CrossEntropy(drow, y)
		drow[y] -= 1
	}

	// Read-out layer gradients, then delta into the last hidden layer.
	hlast := s.vx
	if nh := len(n.hidden); nh > 0 {
		hlast = s.vacts[nh-1]
	}
	s.vdeltaO.MulATInto(hlast, g.out.dW)
	colSumsInto(s.vdeltaO, g.out.dB)

	if len(n.hidden) == 0 {
		return loss
	}
	s.vdeltaO.MulInto(n.out.W, s.vdeltaH[len(n.hidden)-1])

	// Hidden layers, last to first; gradients reach winning pieces only.
	for li := len(n.hidden) - 1; li >= 0; li-- {
		l := n.hidden[li]
		gcur := s.vdeltaH[li]
		in := s.vx
		if li > 0 {
			in = s.vacts[li-1]
		}
		var gnext *mat.Dense
		if li > 0 {
			gnext = s.vdeltaH[li-1]
			for i := 0; i < b; i++ {
				gnext.RawRow(i).Fill(0)
			}
		}
		m := s.vmasked[li]
		for p := range l.Pieces {
			for i := 0; i < b; i++ {
				grow, mrow := gcur.RawRow(i), m.RawRow(i)
				win := s.winners[li][i]
				for j := range mrow {
					if win[j] == p {
						mrow[j] = grow[j]
					} else {
						mrow[j] = 0
					}
				}
			}
			gp := &g.hidden[li][p]
			m.MulATInto(in, gp.dW)
			colSumsInto(m, gp.dB)
			if li > 0 {
				t := s.vtmp[li]
				m.MulInto(l.Pieces[p].W, t)
				for i := 0; i < b; i++ {
					gnext.RawRow(i).AddInPlace(t.RawRow(i))
				}
			}
		}
	}
	return loss
}
