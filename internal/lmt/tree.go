package lmt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
	"repro/internal/plm"
)

// Config controls LMT induction. The two stopping rules are the paper's:
// a node becomes a leaf when it holds fewer than MinLeaf instances or its
// regression classifier exceeds StopAccuracy on the node's data.
type Config struct {
	MinLeaf       int     // minimum instances to split a node (default 100)
	StopAccuracy  float64 // leaf accuracy that stops splitting (default 0.99)
	MaxDepth      int     // safety cap on tree depth (default 12)
	MaxThresholds int     // candidate thresholds per feature (default 16)
	MaxFeatures   int     // features examined per split; 0 = all
	LogReg        LogRegConfig
}

func (c *Config) setDefaults() {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 100
	}
	if c.StopAccuracy <= 0 || c.StopAccuracy > 1 {
		c.StopAccuracy = 0.99
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 16
	}
	if c.MaxFeatures < 0 {
		c.MaxFeatures = 0
	}
}

// Node is one tree node: either an internal gain-ratio split on a single
// pivot feature, or a leaf holding a logistic regression classifier.
type Node struct {
	Feature   int     // split feature (internal nodes)
	Threshold float64 // go left when x[Feature] <= Threshold
	Left      *Node
	Right     *Node
	Leaf      *LogReg // non-nil exactly for leaves
	LeafID    int     // dense leaf index (leaves only)
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Leaf != nil }

// Tree is a trained logistic model tree.
type Tree struct {
	Root      *Node
	dim       int
	classes   int
	numLeaves int
}

var _ plm.RegionModel = (*Tree)(nil)

// Train grows an LMT on (xs, labels) with classes in [0, classes).
// rng drives the optional feature subsampling; pass any seeded source.
func Train(rng *rand.Rand, xs []mat.Vec, labels []int, classes int, cfg Config) (*Tree, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("lmt: empty training set")
	}
	if len(xs) != len(labels) {
		return nil, fmt.Errorf("lmt: %d inputs vs %d labels", len(xs), len(labels))
	}
	if classes < 2 {
		return nil, fmt.Errorf("lmt: need at least 2 classes, got %d", classes)
	}
	cfg.setDefaults()
	d := len(xs[0])
	t := &Tree{dim: d, classes: classes}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	root, err := t.build(rng, xs, labels, idx, 0, cfg)
	if err != nil {
		return nil, err
	}
	t.Root = root
	return t, nil
}

func (t *Tree) build(rng *rand.Rand, xs []mat.Vec, labels []int, idx []int, depth int, cfg Config) (*Node, error) {
	sub := make([]mat.Vec, len(idx))
	subLabels := make([]int, len(idx))
	for i, id := range idx {
		sub[i] = xs[id]
		subLabels[i] = labels[id]
	}
	leaf, err := TrainLogReg(sub, subLabels, t.classes, cfg.LogReg)
	if err != nil {
		return nil, err
	}
	makeLeaf := func() *Node {
		n := &Node{Leaf: leaf, LeafID: t.numLeaves}
		t.numLeaves++
		return n
	}
	if len(idx) < cfg.MinLeaf || depth >= cfg.MaxDepth {
		return makeLeaf(), nil
	}
	if leaf.Accuracy(sub, subLabels) > cfg.StopAccuracy {
		return makeLeaf(), nil
	}
	feature, threshold, ok := t.bestSplit(rng, xs, labels, idx, cfg)
	if !ok {
		return makeLeaf(), nil
	}
	var left, right []int
	for _, id := range idx {
		if xs[id][feature] <= threshold {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return makeLeaf(), nil
	}
	ln, err := t.build(rng, xs, labels, left, depth+1, cfg)
	if err != nil {
		return nil, err
	}
	rn, err := t.build(rng, xs, labels, right, depth+1, cfg)
	if err != nil {
		return nil, err
	}
	return &Node{Feature: feature, Threshold: threshold, Left: ln, Right: rn}, nil
}

// bestSplit selects the (feature, threshold) with the highest C4.5 gain
// ratio among splits with positive information gain.
func (t *Tree) bestSplit(rng *rand.Rand, xs []mat.Vec, labels []int, idx []int, cfg Config) (int, float64, bool) {
	baseCounts := make([]int, t.classes)
	for _, id := range idx {
		baseCounts[labels[id]]++
	}
	baseEntropy := entropy(baseCounts, len(idx))
	if baseEntropy == 0 {
		return 0, 0, false // pure node, nothing to gain
	}

	features := make([]int, t.dim)
	for i := range features {
		features[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < t.dim {
		rng.Shuffle(len(features), func(i, j int) {
			features[i], features[j] = features[j], features[i]
		})
		features = features[:cfg.MaxFeatures]
	}

	bestRatio := 0.0
	bestFeature, bestThreshold := -1, 0.0
	values := make([]float64, len(idx))
	for _, f := range features {
		for i, id := range idx {
			values[i] = xs[id][f]
		}
		for _, thr := range candidateThresholds(values, cfg.MaxThresholds) {
			leftCounts := make([]int, t.classes)
			nLeft := 0
			for _, id := range idx {
				if xs[id][f] <= thr {
					leftCounts[labels[id]]++
					nLeft++
				}
			}
			nRight := len(idx) - nLeft
			if nLeft == 0 || nRight == 0 {
				continue
			}
			rightCounts := make([]int, t.classes)
			for c := range rightCounts {
				rightCounts[c] = baseCounts[c] - leftCounts[c]
			}
			pl := float64(nLeft) / float64(len(idx))
			pr := 1 - pl
			gain := baseEntropy - pl*entropy(leftCounts, nLeft) - pr*entropy(rightCounts, nRight)
			if gain <= 1e-12 {
				continue
			}
			splitInfo := -pl*math.Log2(pl) - pr*math.Log2(pr)
			if splitInfo <= 1e-12 {
				continue
			}
			if ratio := gain / splitInfo; ratio > bestRatio {
				bestRatio, bestFeature, bestThreshold = ratio, f, thr
			}
		}
	}
	return bestFeature, bestThreshold, bestFeature >= 0
}

// candidateThresholds returns up to k split points for a feature column:
// midpoints between distinct consecutive sorted values, quantile-thinned
// when there are more than k of them.
func candidateThresholds(values []float64, k int) []float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var mids []float64
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			mids = append(mids, (sorted[i]+sorted[i-1])/2)
		}
	}
	if len(mids) <= k {
		return mids
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		pos := (i + 1) * len(mids) / (k + 1)
		if pos >= len(mids) {
			pos = len(mids) - 1
		}
		out = append(out, mids[pos])
	}
	return out
}

func entropy(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// leafFor routes x to its leaf node.
func (t *Tree) leafFor(x mat.Vec) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Predict returns the class probabilities of the leaf classifier for x.
func (t *Tree) Predict(x mat.Vec) mat.Vec {
	t.checkInput(x)
	return t.leafFor(x).Leaf.Predict(x)
}

// PredictLabel returns the argmax class for x.
func (t *Tree) PredictLabel(x mat.Vec) int {
	t.checkInput(x)
	return t.leafFor(x).Leaf.PredictLabel(x)
}

// Accuracy returns the fraction of xs classified as labels.
func (t *Tree) Accuracy(xs []mat.Vec, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if t.PredictLabel(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// Dim returns the input dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Classes returns the number of classes.
func (t *Tree) Classes() int { return t.classes }

// NumLeaves returns the number of leaves (= locally linear regions).
func (t *Tree) NumLeaves() int { return t.numLeaves }

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.Root) }

func depthOf(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depthOf(n.Left), depthOf(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// RegionKey identifies the leaf (= locally linear region) containing x.
func (t *Tree) RegionKey(x mat.Vec) string {
	t.checkInput(x)
	return fmt.Sprintf("lmt-leaf-%d", t.leafFor(x).LeafID)
}

// LocalAt returns the leaf classifier as the region's locally linear
// classifier — the exact ground truth the paper extracts from an LMT.
func (t *Tree) LocalAt(x mat.Vec) (*plm.Linear, error) {
	t.checkInput(x)
	leaf := t.leafFor(x)
	return leaf.Leaf.Linear(fmt.Sprintf("lmt-leaf-%d", leaf.LeafID))
}

// RegionPatterns is the pattern hook: one tree descent per row yields the
// leaf, which is both the region key and everything compose(i) needs — a
// region-cache miss does not walk the tree a second time.
func (t *Tree) RegionPatterns(xs []mat.Vec) ([]string, func(int) (*plm.Linear, error), error) {
	leaves := make([]*Node, len(xs))
	keys := make([]string, len(xs))
	for i, x := range xs {
		if len(x) != t.dim {
			return nil, nil, fmt.Errorf("lmt: batch item %d length %d != %d", i, len(x), t.dim)
		}
		leaves[i] = t.leafFor(x)
		keys[i] = fmt.Sprintf("lmt-leaf-%d", leaves[i].LeafID)
	}
	return keys, func(i int) (*plm.Linear, error) { return leaves[i].Leaf.Linear(keys[i]) }, nil
}

var _ plm.PatternRegionModel = (*Tree)(nil)

func (t *Tree) checkInput(x mat.Vec) {
	if len(x) != t.dim {
		panic(fmt.Sprintf("lmt: input length %d != %d", len(x), t.dim))
	}
}
