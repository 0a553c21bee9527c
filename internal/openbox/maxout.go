package openbox

import (
	"fmt"
	"hash/fnv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/plm"
)

// Maxout adapts an nn.MaxoutNetwork to plm.RegionModel. The region of an
// instance is indexed by which affine piece wins at every hidden unit; the
// ground-truth local classifier comes from folding the winning pieces.
type Maxout struct {
	Net *nn.MaxoutNetwork
}

var _ plm.RegionModel = (*Maxout)(nil)
var _ plm.BatchPredictor = (*Maxout)(nil)

// Predict returns softmax class probabilities.
func (m *Maxout) Predict(x mat.Vec) mat.Vec { return m.Net.Predict(x) }

// PredictBatch answers the whole batch with one GEMM per affine piece per
// layer — bit-identical to per-instance Predict.
func (m *Maxout) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	for i, x := range xs {
		if len(x) != m.Net.InputDim() {
			return nil, fmt.Errorf("openbox: maxout batch item %d length %d != %d", i, len(x), m.Net.InputDim())
		}
	}
	return m.Net.PredictBatch(xs), nil
}

// Dim returns the input dimensionality.
func (m *Maxout) Dim() int { return m.Net.InputDim() }

// Classes returns the number of classes.
func (m *Maxout) Classes() int { return m.Net.Classes() }

// winnerKey fingerprints a flat winner pattern.
func winnerKey(pat []int) string {
	h := fnv.New64a()
	buf := make([]byte, len(pat))
	for i, p := range pat {
		buf[i] = byte(p)
	}
	h.Write(buf)
	return fmt.Sprintf("maxout-%d-%016x", len(pat), h.Sum64())
}

// RegionKey fingerprints the winner pattern at x.
func (m *Maxout) RegionKey(x mat.Vec) string {
	return winnerKey(m.Net.WinnerPattern(x))
}

// LocalAt extracts the exact locally linear classifier at x.
func (m *Maxout) LocalAt(x mat.Vec) (*plm.Linear, error) {
	if len(x) != m.Net.InputDim() {
		return nil, fmt.Errorf("openbox: maxout input length %d != %d", len(x), m.Net.InputDim())
	}
	pat := m.Net.WinnerPattern(x)
	return m.compose(pat, winnerKey(pat))
}

// RegionPatterns is the pattern hook: one batched forward yields every
// input's winner pattern, the key is hashed from it, and compose(i) folds
// the winning pieces straight from pattern i.
func (m *Maxout) RegionPatterns(xs []mat.Vec) ([]string, func(int) (*plm.Linear, error), error) {
	for i, x := range xs {
		if len(x) != m.Net.InputDim() {
			return nil, nil, fmt.Errorf("openbox: maxout batch item %d length %d != %d", i, len(x), m.Net.InputDim())
		}
	}
	patterns := m.Net.WinnerPatternBatch(xs)
	keys := make([]string, len(patterns))
	for i, pat := range patterns {
		keys[i] = winnerKey(pat)
	}
	return keys, func(i int) (*plm.Linear, error) { return m.compose(patterns[i], keys[i]) }, nil
}

// compose folds the winning pieces of a flat winner pattern into the
// region's classifier.
func (m *Maxout) compose(pat []int, key string) (*plm.Linear, error) {
	w, b, err := m.Net.AffineFromWinners(pat)
	if err != nil {
		return nil, err
	}
	return plm.NewLinear(w, b, key)
}

var _ plm.PatternRegionModel = (*Maxout)(nil)
