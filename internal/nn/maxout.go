package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// MaxoutLayer computes h_j = max_p (W_p x + b_p)_j over k affine pieces
// (Goodfellow et al., ICML 2013). Like ReLU, the max of affine pieces is
// piecewise linear, so MaxOut networks are PLMs — the other family member
// the paper names explicitly.
type MaxoutLayer struct {
	Pieces []Layer // k affine maps with identical shapes
}

// In returns the layer's input width.
func (l *MaxoutLayer) In() int { return l.Pieces[0].W.Cols() }

// Out returns the layer's output width.
func (l *MaxoutLayer) Out() int { return l.Pieces[0].W.Rows() }

// K returns the number of affine pieces.
func (l *MaxoutLayer) K() int { return len(l.Pieces) }

// MaxoutNetwork is a stack of MaxOut hidden layers with a linear read-out
// into softmax. Its locally linear regions are indexed by which piece wins
// at every hidden unit.
type MaxoutNetwork struct {
	hidden []MaxoutLayer
	out    Layer
}

// NewMaxout builds a MaxOut network with k pieces per hidden unit and the
// given layer widths (input first, classes last).
func NewMaxout(rng *rand.Rand, k int, sizes ...int) *MaxoutNetwork {
	if len(sizes) < 2 {
		panic("nn: NewMaxout needs at least input and output sizes")
	}
	if k < 2 {
		panic(fmt.Sprintf("nn: maxout needs k >= 2 pieces, got %d", k))
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer size %d", s))
		}
	}
	n := &MaxoutNetwork{hidden: make([]MaxoutLayer, len(sizes)-2)}
	newAffine := func(in, out int) Layer {
		w := mat.NewDense(out, in)
		sd := math.Sqrt(2 / float64(in))
		for r := 0; r < out; r++ {
			row := w.RawRow(r)
			for c := range row {
				row[c] = sd * rng.NormFloat64()
			}
		}
		return Layer{W: w, B: mat.NewVec(out)}
	}
	for i := 0; i < len(sizes)-2; i++ {
		pieces := make([]Layer, k)
		for p := range pieces {
			pieces[p] = newAffine(sizes[i], sizes[i+1])
		}
		n.hidden[i] = MaxoutLayer{Pieces: pieces}
	}
	n.out = newAffine(sizes[len(sizes)-2], sizes[len(sizes)-1])
	return n
}

// InputDim returns the expected input dimensionality.
func (n *MaxoutNetwork) InputDim() int {
	if len(n.hidden) > 0 {
		return n.hidden[0].In()
	}
	return n.out.In()
}

// Classes returns the number of output classes.
func (n *MaxoutNetwork) Classes() int { return n.out.Out() }

// NumHidden returns the number of MaxOut hidden layers.
func (n *MaxoutNetwork) NumHidden() int { return len(n.hidden) }

// maxoutState caches per-layer winner indices and activations.
type maxoutState struct {
	winners [][]int   // winners[l][j] = argmax piece of unit j in layer l
	acts    []mat.Vec // acts[0] = input; acts[l+1] = hidden layer l output
	logits  mat.Vec
}

func (n *MaxoutNetwork) forward(x mat.Vec) maxoutState {
	if len(x) != n.InputDim() {
		panic(fmt.Sprintf("nn: maxout input length %d != %d", len(x), n.InputDim()))
	}
	st := maxoutState{
		winners: make([][]int, len(n.hidden)),
		acts:    make([]mat.Vec, len(n.hidden)+1),
	}
	st.acts[0] = x
	cur := x
	for li, l := range n.hidden {
		outs := make([]mat.Vec, l.K())
		for p, piece := range l.Pieces {
			outs[p] = piece.W.MulVec(cur).AddInPlace(piece.B)
		}
		h := make(mat.Vec, l.Out())
		win := make([]int, l.Out())
		for j := 0; j < l.Out(); j++ {
			best := 0
			for p := 1; p < l.K(); p++ {
				if outs[p][j] > outs[best][j] {
					best = p
				}
			}
			win[j] = best
			h[j] = outs[best][j]
		}
		st.winners[li] = win
		st.acts[li+1] = h
		cur = h
	}
	st.logits = n.out.W.MulVec(cur).AddInPlace(n.out.B)
	return st
}

// Logits returns the raw pre-softmax scores for x.
func (n *MaxoutNetwork) Logits(x mat.Vec) mat.Vec { return n.forward(x).logits }

// Predict returns softmax class probabilities.
func (n *MaxoutNetwork) Predict(x mat.Vec) mat.Vec { return Softmax(n.Logits(x)) }

// PredictLabel returns the argmax class.
func (n *MaxoutNetwork) PredictLabel(x mat.Vec) int { return n.Logits(x).ArgMax() }

// WinnerPattern returns the per-unit winning piece indices of every hidden
// layer — the MaxOut analogue of a ReLU activation pattern. Two inputs with
// the same pattern share a locally linear region.
func (n *MaxoutNetwork) WinnerPattern(x mat.Vec) []int {
	return flattenWinners(n.forward(x).winners)
}

// LocalAffine folds the network at x into the exact affine map (W, b) of
// x's locally linear region: within the region, logits = W·x + b.
func (n *MaxoutNetwork) LocalAffine(x mat.Vec) (*mat.Dense, mat.Vec) {
	st := n.forward(x)
	w, b, err := n.AffineFromWinners(flattenWinners(st.winners))
	if err != nil {
		panic(err) // a pattern from forward is valid by construction
	}
	return w, b
}

// HiddenUnits returns the total number of hidden units — the length of a
// flat winner pattern.
func (n *MaxoutNetwork) HiddenUnits() int {
	total := 0
	for _, l := range n.hidden {
		total += l.Out()
	}
	return total
}

// flattenWinners concatenates per-layer winner slices into the flat
// pattern WinnerPattern exposes.
func flattenWinners(winners [][]int) []int {
	var pat []int
	for _, w := range winners {
		pat = append(pat, w...)
	}
	return pat
}

// AffineFromWinners folds the exact affine map (W, b) of the locally
// linear region a flat winner pattern selects, without any forward pass —
// the MaxOut analogue of composing a ReLU region from its activation
// pattern. The result is bit-identical to LocalAffine at any x inside the
// region (the fold is the same arithmetic in the same order; only the
// source of the winner indices differs).
func (n *MaxoutNetwork) AffineFromWinners(pattern []int) (*mat.Dense, mat.Vec, error) {
	if len(pattern) != n.HiddenUnits() {
		return nil, nil, fmt.Errorf("nn: winner pattern length %d != %d hidden units", len(pattern), n.HiddenUnits())
	}
	d := n.InputDim()
	curW := mat.Identity(d)
	curB := mat.NewVec(d)
	off := 0
	for _, l := range n.hidden {
		nextW := mat.NewDense(l.Out(), curW.Cols())
		nextB := mat.NewVec(l.Out())
		for j := 0; j < l.Out(); j++ {
			win := pattern[off+j]
			if win < 0 || win >= l.K() {
				return nil, nil, fmt.Errorf("nn: winner %d of unit %d out of range %d", win, off+j, l.K())
			}
			piece := l.Pieces[win]
			// Row j of the effective map: piece.W[j] composed with cur.
			wj := piece.W.RawRow(j)
			outRow := nextW.RawRow(j)
			for c := 0; c < curW.Cols(); c++ {
				var s float64
				for t := 0; t < curW.Rows(); t++ {
					s = math.FMA(wj[t], curW.At(t, c), s)
				}
				outRow[c] = s
			}
			nextB[j] = wj.Dot(curB) + piece.B[j]
		}
		off += l.Out()
		curW, curB = nextW, nextB
	}
	finalW := n.out.W.Mul(curW)
	finalB := n.out.W.MulVec(curB).AddInPlace(n.out.B)
	return finalW, finalB, nil
}

// InputGradient returns the gradient of logit c with respect to the input,
// backpropagated through the winning pieces.
func (n *MaxoutNetwork) InputGradient(x mat.Vec, c int) mat.Vec {
	if c < 0 || c >= n.Classes() {
		panic(fmt.Sprintf("nn: class %d out of range %d", c, n.Classes()))
	}
	w, _ := n.LocalAffine(x)
	return w.Row(c)
}

// maxoutGradients accumulates parameter gradients for one mini-batch of
// MaxOut training: one (dW, dB) pair per affine piece per hidden layer,
// plus the linear read-out.
type maxoutGradients struct {
	hidden [][]gradPair
	out    gradPair
}

// gradPair is the gradient accumulator of one affine map.
type gradPair struct {
	dW *mat.Dense
	dB mat.Vec
}

func newMaxoutGradients(n *MaxoutNetwork) *maxoutGradients {
	g := &maxoutGradients{hidden: make([][]gradPair, len(n.hidden))}
	for li, l := range n.hidden {
		pairs := make([]gradPair, l.K())
		for p, piece := range l.Pieces {
			pairs[p] = gradPair{
				dW: mat.NewDense(piece.W.Rows(), piece.W.Cols()),
				dB: mat.NewVec(len(piece.B)),
			}
		}
		g.hidden[li] = pairs
	}
	g.out = gradPair{dW: mat.NewDense(n.out.W.Rows(), n.out.W.Cols()), dB: mat.NewVec(len(n.out.B))}
	return g
}

// paramBlocks pairs every parameter span with its gradient accumulator, in
// layer order: each hidden layer's pieces (rows of W, then B), then the
// read-out.
func (n *MaxoutNetwork) paramBlocks(g *maxoutGradients) []paramBlock {
	var blocks []paramBlock
	affine := func(l *Layer, gp *gradPair) {
		for r := 0; r < l.W.Rows(); r++ {
			blocks = append(blocks, paramBlock{w: l.W.RawRow(r), g: gp.dW.RawRow(r)})
		}
		blocks = append(blocks, paramBlock{w: l.B, g: gp.dB, bias: true})
	}
	for li := range n.hidden {
		for p := range n.hidden[li].Pieces {
			affine(&n.hidden[li].Pieces[p], &g.hidden[li][p])
		}
	}
	affine(&n.out, &g.out)
	return blocks
}

// Train runs mini-batch training on the MaxOut network with the same
// optimizer semantics as Network.Train (SGD with momentum, Adam, weight
// decay). Gradients flow through the winning piece of each unit only (the
// max is locally that piece). The whole mini-batch flows through the
// network as matrices — per-piece GEMMs with winner-routed masking, see
// train_batch.go — bit-identical to accumulating the gradients one sample
// at a time. Returns the mean loss of the final epoch.
func (n *MaxoutNetwork) Train(rng *rand.Rand, xs []mat.Vec, labels []int, cfg TrainConfig) (float64, error) {
	if err := checkTrainingSet(xs, labels, n.Classes()); err != nil {
		return 0, err
	}
	cfg.setDefaults()
	grads := newMaxoutGradients(n)
	blocks := n.paramBlocks(grads)
	s := newMaxoutScratch(n, batchCap(cfg.BatchSize, len(xs)))
	return runEpochs(rng, len(xs), &cfg, blocks, func(batch []int) float64 {
		return n.accumulateBatch(s, grads, xs, labels, batch)
	}), nil
}

// Clone returns a deep copy of the network.
func (n *MaxoutNetwork) Clone() *MaxoutNetwork {
	out := &MaxoutNetwork{hidden: make([]MaxoutLayer, len(n.hidden))}
	for li, l := range n.hidden {
		pieces := make([]Layer, l.K())
		for p, piece := range l.Pieces {
			pieces[p] = Layer{W: piece.W.Clone(), B: piece.B.Clone()}
		}
		out.hidden[li] = MaxoutLayer{Pieces: pieces}
	}
	out.out = Layer{W: n.out.W.Clone(), B: n.out.B.Clone()}
	return out
}

// Accuracy returns the fraction of xs classified as labels.
func (n *MaxoutNetwork) Accuracy(xs []mat.Vec, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if n.PredictLabel(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
