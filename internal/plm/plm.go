// Package plm defines the shared vocabulary of the reproduction: what a
// piecewise linear model looks like from the outside (a probability oracle),
// what it looks like from the inside (a locally linear classifier per
// region), and the paper's derived quantities — core parameters and decision
// features — computed from a region's affine map.
package plm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// Model is the black-box view of a classifier: class probabilities only.
// This is exactly the surface a cloud API exposes.
type Model interface {
	// Predict returns the softmax class probabilities for x.
	Predict(x mat.Vec) mat.Vec
	// Dim returns the input dimensionality d.
	Dim() int
	// Classes returns the number of classes C.
	Classes() int
}

// BatchPredictor is an optional extension of Model: services that expose a
// batch endpoint can answer many probes in one round trip, and local models
// with a batched forward (openbox.PLNN, openbox.Maxout — one GEMM per layer
// instead of one matrix-vector product per instance) can answer them at
// hardware speed. Interpreters probe for it with a type assertion and fall
// back to per-instance Predict. Implementations must return answers
// bit-identical to per-instance Predict: callers treat the batch path as a
// pure throughput decision.
type BatchPredictor interface {
	// PredictBatch returns one probability vector per input.
	PredictBatch(xs []mat.Vec) ([]mat.Vec, error)
}

// PredictAll evaluates the model on every input: one PredictBatch call
// when the model offers a batch endpoint, per-instance Predict otherwise.
// A failed batch returns its error; it is never retried row by row, since a
// model whose batch failed would answer the retries no better.
func PredictAll(m Model, xs []mat.Vec) ([]mat.Vec, error) {
	if bp, ok := m.(BatchPredictor); ok {
		out, err := bp.PredictBatch(xs)
		if err != nil {
			return nil, err
		}
		if len(out) != len(xs) {
			return nil, fmt.Errorf("plm: batch answered %d of %d inputs", len(out), len(xs))
		}
		return out, nil
	}
	out := make([]mat.Vec, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out, nil
}

// RegionModel is the white-box view used only for ground truth and the
// Region Difference metric: a PLM that can reveal which locally linear
// region an instance falls in and the region's affine classifier.
type RegionModel interface {
	Model
	// RegionKey returns a stable identifier of the locally linear region
	// containing x. Two instances share a region iff their keys are equal.
	RegionKey(x mat.Vec) string
	// LocalAt returns the locally linear classifier valid on the region
	// containing x.
	LocalAt(x mat.Vec) (*Linear, error)
}

// PatternRegionModel is an optional extension of RegionModel: one forward
// pass (or tree descent) yields both the region's identity and a composer
// that builds the region's classifier from the captured pattern without
// revisiting the input. Region caches probe for it with a type assertion —
// a cache hit then costs exactly the one pattern-building pass (the way a
// PLNN's pattern-keyed RegionCache already works), and a miss composes
// straight from the pattern instead of re-deriving it from x.
type PatternRegionModel interface {
	RegionModel
	// RegionPattern returns the key of the region containing x and a
	// compose function producing the region's classifier. compose must be
	// bit-identical to LocalAt(x) and must not re-run the forward pass.
	RegionPattern(x mat.Vec) (key string, compose func() (*Linear, error), err error)
}

// Linear is a locally linear classifier σ(W x + b). W is stored
// row-per-class (C-by-d): row c is the paper's column W_c.
type Linear struct {
	W   *mat.Dense // C x d
	B   mat.Vec    // C
	Key string     // region identifier (optional)
}

// NewLinear validates shapes and wraps (w, b) as a Linear.
func NewLinear(w *mat.Dense, b mat.Vec, key string) (*Linear, error) {
	if w == nil {
		return nil, fmt.Errorf("plm: nil weight matrix")
	}
	if w.Rows() != len(b) {
		return nil, fmt.Errorf("plm: %d weight rows vs %d biases", w.Rows(), len(b))
	}
	if w.Rows() < 2 {
		return nil, fmt.Errorf("plm: need at least 2 classes, got %d", w.Rows())
	}
	return &Linear{W: w, B: b, Key: key}, nil
}

// Classes returns the number of classes C.
func (l *Linear) Classes() int { return l.W.Rows() }

// Dim returns the input dimensionality d.
func (l *Linear) Dim() int { return l.W.Cols() }

// Logits returns W x + b.
func (l *Linear) Logits(x mat.Vec) mat.Vec {
	out := make(mat.Vec, l.Classes())
	return l.W.MulVecInto(x, out).AddInPlace(l.B)
}

// CoreParams returns the paper's core parameters of the region for the class
// pair (c, c'): (D_{c,c'}, B_{c,c'}) = (W_c − W_{c'}, b_c − b_{c'}). They
// satisfy the log-odds identity D^T x + B = ln(y_c / y_{c'}) on the region.
func (l *Linear) CoreParams(c, cp int) (mat.Vec, float64) {
	l.checkClass(c)
	l.checkClass(cp)
	d := l.W.Row(c).SubInPlace(l.W.RawRow(cp))
	return d, l.B[c] - l.B[cp]
}

// DecisionFeatures returns the paper's D_c (Eq. 1): the average of
// W_c − W_{c'} over the other C−1 classes. Positive entries support class c,
// negative entries oppose it.
func (l *Linear) DecisionFeatures(c int) mat.Vec {
	l.checkClass(c)
	C := l.Classes()
	// Σ_{c'≠c}(W_c − W_{c'}) = C·W_c − Σ_all W_{c'}.
	sum := mat.NewVec(l.Dim())
	for r := 0; r < C; r++ {
		sum.AddInPlace(l.W.RawRow(r))
	}
	out := l.W.Row(c).ScaleInPlace(float64(C)).SubInPlace(sum)
	return out.ScaleInPlace(1 / float64(C-1))
}

// DecisionBias returns the matching averaged bias offset
// (1/(C−1)) Σ_{c'≠c} (b_c − b_{c'}).
func (l *Linear) DecisionBias(c int) float64 {
	l.checkClass(c)
	C := l.Classes()
	var sum float64
	for r := 0; r < C; r++ {
		sum += l.B[r]
	}
	return math.FMA(float64(C), l.B[c], -sum) / float64(C-1)
}

func (l *Linear) checkClass(c int) {
	if c < 0 || c >= l.Classes() {
		panic(fmt.Sprintf("plm: class %d out of range %d", c, l.Classes()))
	}
}

// Interpretation is the result of running any interpreter on one instance:
// the recovered decision features for the target class, the recovered core
// parameter pairs when the method produces them, and bookkeeping about the
// probing effort. Baselines that do not estimate biases leave Biases nil.
type Interpretation struct {
	Class      int       // interpreted class c
	Features   mat.Vec   // D_c estimate, length d
	PairDiffs  []mat.Vec // D_{c,c'} estimates indexed by c' (entry c is nil)
	Biases     []float64 // B_{c,c'} estimates indexed by c' (may be nil)
	Samples    []mat.Vec // perturbed instances the method actually used (nil for white-box methods)
	Queries    int       // API calls consumed
	Iterations int       // outer iterations (OpenAPI's T; 1 for one-shot methods)
	FinalEdge  float64   // hypercube edge length actually used (0 if n/a)
	Exact      bool      // method claims exactness (OpenAPI w.p. 1)
}

// FeatureWeight pairs a feature index with its decision weight.
type FeatureWeight struct {
	Index  int
	Weight float64
}

// TopK returns the k features with the largest absolute weights, strongest
// first. Ties keep the lower index first; k larger than d returns all
// features.
func (in *Interpretation) TopK(k int) []FeatureWeight {
	if k > len(in.Features) {
		k = len(in.Features)
	}
	if k <= 0 {
		return nil
	}
	out := make([]FeatureWeight, len(in.Features))
	for i, w := range in.Features {
		out[i] = FeatureWeight{Index: i, Weight: w}
	}
	sort.SliceStable(out, func(a, b int) bool {
		wa, wb := math.Abs(out[a].Weight), math.Abs(out[b].Weight)
		return wa > wb
	})
	return out[:k]
}

// Supporting returns the feature indices with strictly positive weight —
// those that push the model toward the interpreted class.
func (in *Interpretation) Supporting() []int {
	var out []int
	for i, w := range in.Features {
		if w > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Opposing returns the feature indices with strictly negative weight.
func (in *Interpretation) Opposing() []int {
	var out []int
	for i, w := range in.Features {
		if w < 0 {
			out = append(out, i)
		}
	}
	return out
}

// StoreStats is the one accounting shape every cache and store in the
// repository reports — response caches, region caches, and the disk atlas
// alike — so /stats dashboards parse a single schema instead of one ad-hoc
// section per cache. Size is the number of live entries; Bytes is the
// approximate footprint (0 when a store does not track it).
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Bytes     int64 `json:"bytes"`
}

// Add returns the entrywise sum of two stat snapshots — how a tiered store
// reports the combined work of its layers.
func (s StoreStats) Add(o StoreStats) StoreStats {
	return StoreStats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
		Size:      s.Size + o.Size,
		Bytes:     s.Bytes + o.Bytes,
	}
}

// LinearBytes estimates the in-memory footprint of a region's closed form:
// the W payload plus the bias vector, in float64s. Stores use it for byte
// accounting; it intentionally ignores struct headers.
func LinearBytes(l *Linear) int64 {
	if l == nil {
		return 0
	}
	return int64(l.W.Rows()*l.W.Cols()+len(l.B)) * 8
}

// Interpreter is the common surface of OpenAPI and every baseline.
type Interpreter interface {
	// Name returns a short identifier used in experiment tables ("OpenAPI",
	// "LIME-Linear", ...).
	Name() string
	// Interpret explains why model classifies x as class c.
	Interpret(model Model, x mat.Vec, c int) (*Interpretation, error)
}

// LogOdds returns ln(p_c / p_{c'}) with both probabilities floored at the
// smallest positive normal float64 so saturated softmax outputs yield a
// large-but-finite value instead of ±Inf. The paper's §V-D discusses exactly
// this failure mode for tiny perturbation distances.
func LogOdds(p mat.Vec, c, cp int) float64 {
	return logFloor(p[c]) - logFloor(p[cp])
}

func logFloor(v float64) float64 {
	const floor = 2.2250738585072014e-308 // smallest positive normal
	if v < floor {
		v = floor
	}
	return math.Log(v)
}
