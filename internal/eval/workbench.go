package eval

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/lmt"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// WorkbenchConfig scales one experiment environment. The zero value gives a
// small, fast configuration suitable for `go test`; `experiments -scale
// paper` runs the paper's sizes (28x28 images, the 784-256-128-100-10
// network).
type WorkbenchConfig struct {
	Dataset   string // "mnist" or "fmnist" (default "mnist")
	Size      int    // image side length (default 12)
	PerClass  int    // generated instances per class (default 40)
	TestCount int    // held-out test instances (default len/6)
	Hidden    []int  // PLNN hidden layer sizes (default {32, 16})
	NNEpochs  int    // PLNN training epochs (default 15)
	LMT       lmt.Config
	Seed      int64
}

func (c *WorkbenchConfig) setDefaults() {
	if c.Dataset == "" {
		c.Dataset = "mnist"
	}
	if c.Size <= 0 {
		c.Size = 12
	}
	if c.PerClass <= 0 {
		c.PerClass = 40
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32, 16}
	}
	if c.NNEpochs <= 0 {
		c.NNEpochs = 15
	}
	if c.LMT.MinLeaf == 0 {
		c.LMT = lmt.Config{
			MinLeaf:  60,
			MaxDepth: 6,
			LogReg:   lmt.LogRegConfig{Epochs: 60},
		}
	}
}

// Workbench is one fully-trained experiment environment: a dataset split
// and the two target PLMs (a PLNN and an LMT) with white-box ground-truth
// access.
type Workbench struct {
	Config WorkbenchConfig
	Train  *dataset.Dataset
	Test   *dataset.Dataset
	PLNN   *openbox.PLNN
	LMT    *lmt.Tree
	// Per-model wall-clock training times, so experiment reports show
	// where workbench construction spends its budget (the PLNN trains on
	// the batched GEMM epoch since PR 5).
	PLNNTrainTime time.Duration
	LMTTrainTime  time.Duration
}

// ModelEntry names one target model of a workbench.
type ModelEntry struct {
	Name  string
	Model plm.RegionModel
}

// NewWorkbench generates the dataset, splits it, and trains both target
// models. Everything is derived from cfg.Seed, so a workbench is
// reproducible.
func NewWorkbench(cfg WorkbenchConfig) (*Workbench, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	data, err := dataset.SyntheticByName(cfg.Dataset, rng, dataset.SynthConfig{
		Size:     cfg.Size,
		PerClass: cfg.PerClass,
	})
	if err != nil {
		return nil, err
	}
	testCount := cfg.TestCount
	if testCount <= 0 || testCount >= data.Len() {
		testCount = data.Len() / 6
	}
	train, test := data.Split(rng, testCount)

	sizes := append([]int{train.Dim()}, cfg.Hidden...)
	sizes = append(sizes, train.Classes())
	net := nn.New(rng, sizes...)
	nnStart := time.Now()
	if _, err := net.Train(rng, train.X, train.Y, nn.TrainConfig{
		Epochs:       cfg.NNEpochs,
		LearningRate: 0.1,
		BatchSize:    32,
	}); err != nil {
		return nil, fmt.Errorf("eval: train PLNN: %w", err)
	}
	nnTime := time.Since(nnStart)

	lmtStart := time.Now()
	tree, err := lmt.Train(rng, train.X, train.Y, train.Classes(), cfg.LMT)
	if err != nil {
		return nil, fmt.Errorf("eval: train LMT: %w", err)
	}

	return &Workbench{
		Config:        cfg,
		Train:         train,
		Test:          test,
		PLNN:          &openbox.PLNN{Net: net},
		LMT:           tree,
		PLNNTrainTime: nnTime,
		LMTTrainTime:  time.Since(lmtStart),
	}, nil
}

// Models returns the two target models in the paper's order.
func (w *Workbench) Models() []ModelEntry {
	return []ModelEntry{
		{Name: "PLNN", Model: w.PLNN},
		{Name: "LMT", Model: w.LMT},
	}
}

// ModelByName returns the named target model ("PLNN" or "LMT").
func (w *Workbench) ModelByName(name string) (plm.RegionModel, error) {
	switch name {
	case "PLNN", "plnn":
		return w.PLNN, nil
	case "LMT", "lmt":
		return w.LMT, nil
	}
	return nil, fmt.Errorf("eval: unknown model %q", name)
}

// SampleTestInstances returns n test-set indices drawn without replacement
// (the paper subsamples 1000 test instances per dataset).
func (w *Workbench) SampleTestInstances(rng *rand.Rand, n int) []int {
	if n >= w.Test.Len() {
		n = w.Test.Len()
	}
	return rng.Perm(w.Test.Len())[:n]
}
