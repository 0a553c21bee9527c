package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Optimizer selects the parameter update rule.
type Optimizer int

const (
	// SGD is mini-batch gradient descent with classical momentum — the
	// "standard back-propagation" setup the paper uses for its PLNN.
	SGD Optimizer = iota
	// Adam is the adaptive-moment update (Kingma & Ba, 2015); useful when
	// a caller's dataset needs less learning-rate tuning.
	Adam
)

// String returns the optimizer's name.
func (o Optimizer) String() string {
	switch o {
	case SGD:
		return "sgd"
	case Adam:
		return "adam"
	}
	return "optimizer(?)"
}

// TrainConfig controls mini-batch training.
type TrainConfig struct {
	Epochs       int       // passes over the training set (default 10)
	BatchSize    int       // mini-batch size (default 32)
	LearningRate float64   // step size (default 0.1 for SGD, 0.001 for Adam)
	Momentum     float64   // SGD momentum in [0, 1) (default 0, none; values outside [0, 1) become 0.9)
	WeightDecay  float64   // L2 penalty coefficient (default 0)
	Optimizer    Optimizer // update rule (default SGD)
	Beta1        float64   // Adam first-moment decay (default 0.9)
	Beta2        float64   // Adam second-moment decay (default 0.999)
	// Progress, when non-nil, is called after each epoch with the epoch
	// index (1-based) and the mean training loss of that epoch.
	Progress func(epoch int, loss float64)
}

func (c *TrainConfig) setDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LearningRate <= 0 {
		if c.Optimizer == Adam {
			c.LearningRate = 0.001
		} else {
			c.LearningRate = 0.1
		}
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		c.Momentum = 0.9
	}
	if c.WeightDecay < 0 {
		c.WeightDecay = 0
	}
	if c.Beta1 <= 0 || c.Beta1 >= 1 {
		c.Beta1 = 0.9
	}
	if c.Beta2 <= 0 || c.Beta2 >= 1 {
		c.Beta2 = 0.999
	}
}

// checkTrainingSet validates a training set against a model's class count.
func checkTrainingSet(xs []mat.Vec, labels []int, classes int) error {
	if len(xs) == 0 {
		return fmt.Errorf("nn: empty training set")
	}
	if len(xs) != len(labels) {
		return fmt.Errorf("nn: %d inputs vs %d labels", len(xs), len(labels))
	}
	for i, y := range labels {
		if y < 0 || y >= classes {
			return fmt.Errorf("nn: label %d of sample %d out of range [0,%d)", y, i, classes)
		}
	}
	return nil
}

// batchCap bounds the pooled scratch row capacity: no mini-batch is ever
// larger than the training set.
func batchCap(batchSize, n int) int {
	if batchSize > n {
		return n
	}
	return batchSize
}

// paramBlock pairs one contiguous parameter span with its gradient
// accumulator. The optimizer updates every element independently, so block
// granularity never affects the update arithmetic — blocks exist so one
// update implementation serves Network and MaxoutNetwork.
type paramBlock struct {
	w, g []float64
	bias bool // biases skip weight decay under SGD (seed semantics)
}

// optimizer holds the per-parameter state of the update rule — the SGD
// velocity or the Adam moments — one slot span per block.
type optimizer struct {
	cfg      *TrainConfig
	adamStep int
	m1, m2   [][]float64
}

func newOptimizer(cfg *TrainConfig, blocks []paramBlock) *optimizer {
	o := &optimizer{cfg: cfg, m1: make([][]float64, len(blocks))}
	for i, b := range blocks {
		o.m1[i] = make([]float64, len(b.w))
	}
	if cfg.Optimizer == Adam {
		o.m2 = make([][]float64, len(blocks))
		for i, b := range blocks {
			o.m2[i] = make([]float64, len(b.w))
		}
	}
	return o
}

// step applies one mini-batch update to every block. Training and the
// per-sample reference of the Train parity tests share this elementwise
// arithmetic, so identical gradient accumulators yield bit-identical
// weights.
func (o *optimizer) step(blocks []paramBlock, batchLen int) {
	cfg := o.cfg
	invBatch := 1 / float64(batchLen)
	switch cfg.Optimizer {
	case Adam:
		o.adamStep++
		bc1 := 1 - math.Pow(cfg.Beta1, float64(o.adamStep))
		bc2 := 1 - math.Pow(cfg.Beta2, float64(o.adamStep))
		for i, blk := range blocks {
			m1, m2 := o.m1[i], o.m2[i]
			for c := range blk.w {
				gc := math.FMA(cfg.WeightDecay, blk.w[c], blk.g[c]*invBatch)
				m1[c] = math.FMA(cfg.Beta1, m1[c], (1-cfg.Beta1)*gc)
				m2[c] = math.FMA(cfg.Beta2, m2[c], (1-cfg.Beta2)*gc*gc)
				mhat := m1[c] / bc1
				vhat := m2[c] / bc2
				blk.w[c] -= cfg.LearningRate * mhat / (math.Sqrt(vhat) + 1e-8)
			}
		}
	default: // SGD with momentum
		scale := cfg.LearningRate * invBatch
		for i, blk := range blocks {
			// v = mu*v - lr*(g/|B| + wd*W); W += v. Biases are not decayed,
			// matching the pre-batching update rule exactly (Adam above
			// decays both, also as before).
			wd := cfg.WeightDecay
			if blk.bias {
				wd = 0
			}
			v := o.m1[i]
			for c := range blk.w {
				v[c] = math.FMA(-cfg.LearningRate*wd, blk.w[c], math.FMA(-scale, blk.g[c], cfg.Momentum*v[c]))
				blk.w[c] += v[c]
			}
		}
	}
}

// runEpochs drives the shared training schedule — per-epoch shuffle,
// mini-batch slicing, optimizer step — for both network families and for
// the per-sample reference of the Train parity tests. accumulate must
// (re)fill the gradient accumulators behind blocks for the given batch of
// sample indices and return the summed batch loss. The RNG is consumed
// identically (one Perm per epoch) whatever accumulate does, so the
// reference sees the same batch order.
func runEpochs(rng *rand.Rand, nSamples int, cfg *TrainConfig, blocks []paramBlock, accumulate func(batch []int) float64) float64 {
	opt := newOptimizer(cfg, blocks)
	var lastLoss float64
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		order := rng.Perm(nSamples)
		var epochLoss float64
		for start := 0; start < nSamples; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > nSamples {
				end = nSamples
			}
			batch := order[start:end]
			epochLoss += accumulate(batch)
			opt.step(blocks, len(batch))
		}
		lastLoss = epochLoss / float64(nSamples)
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
	}
	return lastLoss
}

// gradients accumulates parameter gradients for one mini-batch.
type gradients struct {
	dW []*mat.Dense
	dB []mat.Vec
}

func newGradients(n *Network) *gradients {
	g := &gradients{
		dW: make([]*mat.Dense, len(n.layers)),
		dB: make([]mat.Vec, len(n.layers)),
	}
	for i, l := range n.layers {
		g.dW[i] = mat.NewDense(l.W.Rows(), l.W.Cols())
		g.dB[i] = mat.NewVec(len(l.B))
	}
	return g
}

// paramBlocks pairs every parameter span of the network with its gradient
// accumulator, in layer order: the rows of W, then B.
func (n *Network) paramBlocks(g *gradients) []paramBlock {
	var blocks []paramBlock
	for i, l := range n.layers {
		for r := 0; r < l.W.Rows(); r++ {
			blocks = append(blocks, paramBlock{w: l.W.RawRow(r), g: g.dW[i].RawRow(r)})
		}
		blocks = append(blocks, paramBlock{w: l.B, g: g.dB[i], bias: true})
	}
	return blocks
}

// Train runs mini-batch training over (xs, labels) and returns the mean
// loss of the final epoch. The shuffle order is drawn from rng, so training
// is reproducible given the seed. The whole mini-batch flows through the
// network as matrices — one GEMM per layer forward, one transpose-A GEMM
// per layer for the weight gradients, one GEMM per layer for delta
// propagation (see train_batch.go) — producing weights bit-identical to
// accumulating the gradients one sample at a time.
func (n *Network) Train(rng *rand.Rand, xs []mat.Vec, labels []int, cfg TrainConfig) (float64, error) {
	if err := checkTrainingSet(xs, labels, n.Classes()); err != nil {
		return 0, err
	}
	cfg.setDefaults()
	grads := newGradients(n)
	blocks := n.paramBlocks(grads)
	// accumulateBatch overwrites every accumulator (transpose-A GEMM for
	// dW, column sums for dB), so grads needs no per-batch zeroing and the
	// scratch is reused across batches and epochs.
	s := newNetScratch(n, batchCap(cfg.BatchSize, len(xs)))
	return runEpochs(rng, len(xs), &cfg, blocks, func(batch []int) float64 {
		return n.accumulateBatch(s, grads, xs, labels, batch)
	}), nil
}

// Loss returns the mean cross-entropy of the network over (xs, labels).
func (n *Network) Loss(xs []mat.Vec, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var total float64
	for i, x := range xs {
		total += CrossEntropy(n.Predict(x), labels[i])
	}
	return total / float64(len(xs))
}
