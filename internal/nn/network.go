package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Layer is one affine map of the network: z = W x + b with W shaped
// out-by-in. Hidden layers are followed by ReLU; the last layer feeds the
// softmax directly.
type Layer struct {
	W *mat.Dense
	B mat.Vec
}

// In returns the input width of the layer.
func (l *Layer) In() int { return l.W.Cols() }

// Out returns the output width of the layer.
func (l *Layer) Out() int { return l.W.Rows() }

// Network is a fully connected network from the ReLU family the paper
// names: plain ReLU by default, or Leaky/Parametric ReLU when a non-zero
// negative slope is set. Either way every activation is piecewise linear,
// so the network is a PLM. The paper's image experiments use the plain-ReLU
// architecture 784-256-128-100-10.
type Network struct {
	layers []Layer
	// leak is the negative-side slope of the hidden activations: 0 gives
	// ReLU, small positive values give Leaky/Parametric ReLU (He et al.,
	// cited by the paper as part of the PLM family).
	leak float64
}

// SetLeak sets the hidden activations' negative-side slope. Values are
// clamped to [0, 1); 0 restores plain ReLU. It returns the network for
// chaining.
func (n *Network) SetLeak(alpha float64) *Network {
	if alpha < 0 || alpha >= 1 {
		alpha = 0
	}
	n.leak = alpha
	return n
}

// Leak returns the configured negative-side slope.
func (n *Network) Leak() float64 { return n.leak }

// activate applies the hidden nonlinearity in place given pre-activations,
// overwriting z, and returns z. Callers that need the pre-activations later
// (backprop, activation patterns) must pass a copy.
func (n *Network) activate(z mat.Vec) mat.Vec {
	for i, v := range z {
		if v > 0 {
			z[i] = v
		} else {
			z[i] = n.leak * v
		}
	}
	return z
}

// New builds a network with the given layer widths (input first, classes
// last) and He-initialized weights drawn from rng. It panics on fewer than
// two sizes or non-positive widths.
func New(rng *rand.Rand, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: New needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer size %d", s))
		}
	}
	n := &Network{layers: make([]Layer, len(sizes)-1)}
	for i := range n.layers {
		in, out := sizes[i], sizes[i+1]
		w := mat.NewDense(out, in)
		sd := math.Sqrt(2 / float64(in)) // He init for ReLU
		for r := 0; r < out; r++ {
			row := w.RawRow(r)
			for c := range row {
				row[c] = sd * rng.NormFloat64()
			}
		}
		n.layers[i] = Layer{W: w, B: mat.NewVec(out)}
	}
	return n
}

// FromLayers builds a network from explicit layers (cloned). Adjacent layer
// shapes must chain. Useful for tests that need hand-crafted PLNNs.
func FromLayers(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: FromLayers needs at least one layer")
	}
	n := &Network{layers: make([]Layer, len(layers))}
	for i, l := range layers {
		if l.W == nil || len(l.B) != l.W.Rows() {
			panic(fmt.Sprintf("nn: layer %d malformed", i))
		}
		if i > 0 && l.W.Cols() != layers[i-1].W.Rows() {
			panic(fmt.Sprintf("nn: layer %d input %d != previous output %d",
				i, l.W.Cols(), layers[i-1].W.Rows()))
		}
		n.layers[i] = Layer{W: l.W.Clone(), B: l.B.Clone()}
	}
	return n
}

// InputDim returns the expected input dimensionality d.
func (n *Network) InputDim() int { return n.layers[0].In() }

// Classes returns the number of output classes C.
func (n *Network) Classes() int { return n.layers[len(n.layers)-1].Out() }

// NumLayers returns the number of affine layers.
func (n *Network) NumLayers() int { return len(n.layers) }

// Layer returns a deep copy of layer i (0-based).
func (n *Network) Layer(i int) Layer {
	l := n.layers[i]
	return Layer{W: l.W.Clone(), B: l.B.Clone()}
}

// LayerShared returns layer i sharing the network's parameter storage —
// no copy. Callers must treat the result as read-only; it exists so hot
// paths (the closed-form composition chain) stop cloning whole weight
// matrices per access.
func (n *Network) LayerShared(i int) Layer { return n.layers[i] }

// HiddenSizes returns the widths of the hidden layers.
func (n *Network) HiddenSizes() []int {
	out := make([]int, 0, len(n.layers)-1)
	for _, l := range n.layers[:len(n.layers)-1] {
		out = append(out, l.Out())
	}
	return out
}

// forwardState caches pre-activations (z) and post-activations (a) for
// backprop. a[0] is the input; a[i] for i >= 1 is the output of layer i-1
// after its nonlinearity (ReLU for hidden, identity for the last layer).
type forwardState struct {
	z []mat.Vec
	a []mat.Vec
}

func (n *Network) forward(x mat.Vec) forwardState {
	if len(x) != n.InputDim() {
		panic(fmt.Sprintf("nn: input length %d != %d", len(x), n.InputDim()))
	}
	st := forwardState{
		z: make([]mat.Vec, len(n.layers)),
		a: make([]mat.Vec, len(n.layers)+1),
	}
	st.a[0] = x
	cur := x
	for i, l := range n.layers {
		z := l.W.MulVec(cur).AddInPlace(l.B)
		st.z[i] = z
		if i < len(n.layers)-1 {
			// activate works in place; st.z must keep the pre-activations
			// for backprop and activation patterns, so hand it a copy.
			cur = n.activate(z.Clone())
		} else {
			cur = z
		}
		st.a[i+1] = cur
	}
	return st
}

// Logits returns the raw pre-softmax scores for x.
func (n *Network) Logits(x mat.Vec) mat.Vec {
	st := n.forward(x)
	return st.z[len(n.layers)-1].Clone()
}

// Predict returns the softmax class probabilities for x. This is the only
// view of the model an API consumer gets.
func (n *Network) Predict(x mat.Vec) mat.Vec {
	return Softmax(n.Logits(x))
}

// PredictLabel returns the argmax class of x.
func (n *Network) PredictLabel(x mat.Vec) int {
	return n.Logits(x).ArgMax()
}

// ActivationPattern returns the concatenated ReLU activity masks of all
// hidden layers for input x. Two inputs with identical patterns live in the
// same locally linear region.
func (n *Network) ActivationPattern(x mat.Vec) []bool {
	st := n.forward(x)
	var pat []bool
	for i := 0; i < len(n.layers)-1; i++ {
		pat = append(pat, ReLUMask(st.z[i])...)
	}
	return pat
}

// InputGradient returns the gradient of logit c with respect to the input.
// Inside a locally linear region this equals row c of the region's effective
// weight matrix; it backs the white-box gradient baselines.
func (n *Network) InputGradient(x mat.Vec, c int) mat.Vec {
	if c < 0 || c >= n.Classes() {
		panic(fmt.Sprintf("nn: class %d out of range %d", c, n.Classes()))
	}
	st := n.forward(x)
	last := len(n.layers) - 1
	// Seed: d logit_c / d z_last = e_c.
	g := mat.NewVec(n.layers[last].Out())
	g[c] = 1
	for i := last; i >= 0; i-- {
		// Through the affine map: g <- W^T g.
		g = n.layers[i].W.MulVecT(g)
		if i > 0 {
			// Through the (leaky) ReLU of the previous layer.
			z := st.z[i-1]
			for j := range g {
				if z[j] <= 0 {
					g[j] *= n.leak
				}
			}
		}
	}
	return g
}

// Accuracy returns the fraction of rows of xs classified as labels.
func (n *Network) Accuracy(xs []mat.Vec, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) != len(labels) {
		panic(fmt.Sprintf("nn: Accuracy %d inputs vs %d labels", len(xs), len(labels)))
	}
	correct := 0
	for i, x := range xs {
		if n.PredictLabel(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = Layer{W: l.W.Clone(), B: l.B.Clone()}
	}
	return &Network{layers: layers, leak: n.leak}
}
