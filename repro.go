package repro

import (
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/lmt"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// Core vocabulary, re-exported so downstream users never import internal
// packages directly.
type (
	// Vec is a dense feature vector.
	Vec = mat.Vec
	// Model is the black-box probability oracle an API exposes.
	Model = plm.Model
	// RegionModel is the white-box view used for ground truth.
	RegionModel = plm.RegionModel
	// Interpretation is the result of interpreting one instance.
	Interpretation = plm.Interpretation
	// Interpreter is the common surface of OpenAPI and all baselines.
	Interpreter = plm.Interpreter
	// OpenAPIConfig tunes the OpenAPI interpreter (Algorithm 1).
	OpenAPIConfig = core.Config
	// Dataset is a labeled image collection with [0,1] features.
	Dataset = dataset.Dataset
)

// NewOpenAPI returns the paper's interpreter with the given configuration.
// The zero config reproduces the paper's settings (r = 1.0, m = 100).
func NewOpenAPI(cfg OpenAPIConfig) Interpreter { return core.New(cfg) }

// Interpret is the one-call path: run OpenAPI with default settings and
// return the exact decision features of model at x for class c.
func Interpret(model Model, x Vec, c int) (*Interpretation, error) {
	return core.New(core.Config{}).Interpret(model, x, c)
}

// InterpretAll recovers the decision features of every class from a single
// converged sample set.
func InterpretAll(model Model, x Vec) ([]*Interpretation, error) {
	return core.New(core.Config{}).InterpretAll(model, x)
}

// DemoModel is a small trained PLNN exposed as both a Model and a
// RegionModel, with a convenience instance generator for demos and tests.
type DemoModel struct {
	*openbox.PLNN
	rng  *rand.Rand
	data *dataset.Dataset
}

// Example returns a test instance from the demo model's dataset.
func (m *DemoModel) Example() Vec {
	return m.data.X[m.rng.Intn(m.data.Len())]
}

// Data returns the demo model's dataset.
func (m *DemoModel) Data() *Dataset { return m.data }

// MustTrainDemoPLNN trains a small ReLU network on the synthetic digits
// dataset. It panics on failure (demo/test convenience only).
func MustTrainDemoPLNN(seed int64) *DemoModel {
	rng := rand.New(rand.NewSource(seed))
	data := dataset.SyntheticDigits(rng, dataset.SynthConfig{Size: 10, PerClass: 40})
	net := nn.New(rng, data.Dim(), 32, 16, data.Classes())
	if _, err := net.Train(rng, data.X, data.Y, nn.TrainConfig{Epochs: 15}); err != nil {
		panic(fmt.Sprintf("repro: demo training failed: %v", err))
	}
	return &DemoModel{
		PLNN: &openbox.PLNN{Net: net},
		rng:  rng,
		data: data,
	}
}

// MustTrainDemoPLNNBinary trains a small two-class demo model (even vs odd
// synthetic digits). It panics on failure (demo/test convenience only).
func MustTrainDemoPLNNBinary(seed int64) *DemoModel {
	rng := rand.New(rand.NewSource(seed))
	data := dataset.SyntheticDigits(rng, dataset.SynthConfig{Size: 10, PerClass: 40})
	labels := make([]int, data.Len())
	for i, y := range data.Y {
		labels[i] = y % 2
	}
	binary := &dataset.Dataset{
		Name: "synth-mnist-parity", Width: data.Width, Height: data.Height,
		X: data.X, Y: labels, Names: []string{"even", "odd"},
	}
	net := nn.New(rng, binary.Dim(), 24, 12, 2)
	if _, err := net.Train(rng, binary.X, binary.Y, nn.TrainConfig{Epochs: 15}); err != nil {
		panic(fmt.Sprintf("repro: binary demo training failed: %v", err))
	}
	return &DemoModel{PLNN: &openbox.PLNN{Net: net}, rng: rng, data: binary}
}

// TrainPLNN trains a fully connected ReLU network on (xs, labels) and
// returns it wrapped as a RegionModel. hidden lists the hidden-layer widths.
func TrainPLNN(seed int64, xs []Vec, labels []int, classes int, hidden []int, epochs int) (RegionModel, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("repro: empty training set")
	}
	rng := rand.New(rand.NewSource(seed))
	sizes := append([]int{len(xs[0])}, hidden...)
	sizes = append(sizes, classes)
	net := nn.New(rng, sizes...)
	if _, err := net.Train(rng, xs, labels, nn.TrainConfig{Epochs: epochs}); err != nil {
		return nil, err
	}
	return &openbox.PLNN{Net: net}, nil
}

// TrainLMT trains a logistic model tree on (xs, labels) with the paper's
// default stopping rules and returns it as a RegionModel.
func TrainLMT(seed int64, xs []Vec, labels []int, classes int) (RegionModel, error) {
	rng := rand.New(rand.NewSource(seed))
	return lmt.Train(rng, xs, labels, classes, lmt.Config{})
}

// SyntheticDataset generates one of the paper's dataset stand-ins by name
// ("mnist" or "fmnist") at the given image size and per-class count.
func SyntheticDataset(name string, seed int64, size, perClass int) (*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	return dataset.SyntheticByName(name, rng, dataset.SynthConfig{Size: size, PerClass: perClass})
}

// ServeModel exposes a model as an HTTP prediction API (see internal/api for
// the wire protocol). Mount it on any mux or pass it to http.ListenAndServe.
func ServeModel(model Model, name string) http.Handler {
	return api.NewServer(model, name)
}

// DialModel connects to a served model and returns it as a Model. The
// returned client records transport errors stickily; see api.Client.
func DialModel(baseURL string) (*api.Client, error) {
	return api.Dial(baseURL, nil, 2)
}

// CountQueries wraps a model with a query counter for measuring probing
// cost.
func CountQueries(model Model) *api.Counter { return api.NewCounter(model) }

// NewPool returns a pool of worker interpreters for concurrent
// InterpretMany runs; results are bit-reproducible for a fixed worker
// count. See core.Pool.
func NewPool(cfg OpenAPIConfig, workers int) *core.Pool { return core.NewPool(cfg, workers) }

// ShardModel routes prediction traffic across interchangeable replicas of
// one model: /batch-style bulk requests are split into chunks evaluated on
// all replicas in parallel and merged back in order. Serve the returned
// shard with ServeModel for a multi-replica prediction service.
func ShardModel(replicas ...Model) (*api.Shard, error) {
	return api.NewShard(replicas)
}

// WrapBinaryScore adapts a single-probability API (P(positive | x), the
// most common real-world binary-classifier surface) into a two-class Model,
// so OpenAPI runs unchanged against score-only services.
func WrapBinaryScore(score func(Vec) float64, dim int) Model {
	return plm.NewBinary(func(x mat.Vec) float64 { return score(x) }, dim)
}

// GroundTruth returns the exact decision features of a white-box model at x
// for class c — the reference the evaluation compares against.
func GroundTruth(model RegionModel, x Vec, c int) (Vec, error) {
	loc, err := model.LocalAt(x)
	if err != nil {
		return nil, err
	}
	return loc.DecisionFeatures(c), nil
}

// NewWorkbench builds a full experiment environment (dataset + trained PLNN
// and LMT). See eval.WorkbenchConfig for scaling knobs.
func NewWorkbench(cfg eval.WorkbenchConfig) (*eval.Workbench, error) {
	return eval.NewWorkbench(cfg)
}

// QualityRow aggregates the paper's RD / WD / L1Dist metrics for one
// interpretation method.
type QualityRow = eval.QualityRow

// Baselines returns the paper's four API-only baselines at perturbation
// distance h: the naive determined-system method, ZOO, Linear-Regression
// LIME and Ridge-Regression LIME.
func Baselines(h float64, seed int64) []Interpreter {
	return eval.StandardBaselines(h, seed)
}

// CompareQuality evaluates every method's sample quality (RD, WD) and
// exactness (L1Dist) against a white-box model over the given instances —
// the Figures 5-7 computation as a library call.
func CompareQuality(model RegionModel, methods []Interpreter, xs []Vec) ([]QualityRow, error) {
	return eval.SampleQuality(model, methods, xs)
}

// Surrogate is a patchwork clone of a hidden PLM assembled from regions
// recovered through its API (the paper's §VI future work).
type Surrogate = extract.Surrogate

// ExtractSurrogate reverse-engineers the locally linear regions of model
// around each probe instance and assembles them into a functional clone.
// Within a probed region the surrogate's output distribution is exactly the
// hidden model's; between regions assignment falls back to the nearest
// probe.
func ExtractSurrogate(model Model, probes []Vec) (*Surrogate, error) {
	return extract.New(core.Config{}).Harvest(model, probes)
}

// ExtractSurrogatePooled is ExtractSurrogate across a pool of concurrent
// workers — the bulk-extraction fast path. The argmax pre-query for every
// probe ships as one batch and each sample set as one batch per round, so
// a served model pays one round trip per interpretation round; results
// are deterministic for a fixed worker count.
func ExtractSurrogatePooled(model Model, probes []Vec, workers int) (*Surrogate, error) {
	return extract.New(core.Config{}).HarvestPool(model, probes, workers)
}

// VerifySurrogate measures label agreement and mean total-variation distance
// between a surrogate and the hidden model on test instances.
func VerifySurrogate(s *Surrogate, model Model, xs []Vec) (extract.Fidelity, error) {
	return extract.Verify(s, model, xs)
}

// ExtractSurrogateExact builds a surrogate straight from a white-box model —
// the model owner's export path. No API probing: activation patterns come
// from the batched forward and each distinct locally linear region is
// composed exactly once through the region cache.
func ExtractSurrogateExact(model RegionModel, probes []Vec) (*Surrogate, error) {
	return extract.HarvestExact(model, probes)
}

// CacheRegions wraps a white-box model in the region cache, so repeated
// ground-truth LocalAt queries for instances in an already-seen region
// return the memoized closed-form classifier instead of re-running the GEMM
// composition chain (capacity <= 0 keeps every region). Every family gets
// the same cache: a PLNN, MaxOut or LMT — or a type embedding one, such as
// DemoModel — is keyed by its pattern hook, any other RegionModel by
// RegionKey. The returned classifiers are shared: treat them as read-only.
func CacheRegions(model RegionModel, capacity int) RegionModel {
	return openbox.CacheRegionModelOpts(model, openbox.StoreOptions{Capacity: capacity})
}
