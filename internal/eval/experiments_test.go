package eval

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interpret/gradient"
	"repro/internal/mat"
	"repro/internal/plm"
)

// testWorkbench builds a small shared workbench once; experiments reuse it.
var benchCache *Workbench

func testWorkbench(t *testing.T) *Workbench {
	t.Helper()
	if benchCache != nil {
		return benchCache
	}
	w, err := NewWorkbench(WorkbenchConfig{
		Dataset:  "mnist",
		Size:     8,
		PerClass: 30,
		NNEpochs: 20,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	benchCache = w
	return w
}

func TestWorkbenchTrainsReasonableModels(t *testing.T) {
	w := testWorkbench(t)
	rows := Table1(w)
	if len(rows) != 2 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TrainAcc < 0.5 {
			t.Fatalf("%s train accuracy = %v — models did not learn", r.Model, r.TrainAcc)
		}
		if r.TestAcc < 0.4 {
			t.Fatalf("%s test accuracy = %v", r.Model, r.TestAcc)
		}
	}
}

func TestWorkbenchModelLookup(t *testing.T) {
	w := testWorkbench(t)
	if len(w.Models()) != 2 {
		t.Fatal("Models() should list both targets")
	}
}

func TestSampleTestInstances(t *testing.T) {
	w := testWorkbench(t)
	rng := rand.New(rand.NewSource(1))
	ids := w.SampleTestInstances(rng, 5)
	if len(ids) != 5 {
		t.Fatalf("got %d ids", len(ids))
	}
	all := w.SampleTestInstances(rng, 1<<20)
	if len(all) != w.Test.Len() {
		t.Fatalf("oversized request returned %d", len(all))
	}
}

func TestFigure2ProducesHeatmaps(t *testing.T) {
	w := testWorkbench(t)
	o := core.New(core.Config{Seed: 7})
	rng := rand.New(rand.NewSource(8))
	hms, err := Figure2(w, o, []int{0, 1}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(hms) != 2 {
		t.Fatalf("got %d heatmaps", len(hms))
	}
	for _, hm := range hms {
		if len(hm.MeanImage) != w.Test.Dim() {
			t.Fatal("mean image wrong size")
		}
		for _, name := range []string{"PLNN", "LMT"} {
			dv, ok := hm.AvgDecision[name]
			if !ok {
				t.Fatalf("missing decision features for %s", name)
			}
			if len(dv) != w.Test.Dim() {
				t.Fatal("decision features wrong size")
			}
			if dv.Norm2() == 0 {
				t.Fatalf("all-zero decision features for %s class %d", name, hm.Class)
			}
		}
	}
	if _, err := Figure2(w, o, []int{99}, 2, rng); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestFigure3EndToEnd(t *testing.T) {
	w := testWorkbench(t)
	rng := rand.New(rand.NewSource(9))
	ids := w.SampleTestInstances(rng, 4)
	xs := w.Test.Subset(ids, "probe").X

	methods := []plm.Interpreter{
		core.New(core.Config{Seed: 10}),
		gradient.New(w.PLNN.Net, gradient.Config{Method: gradient.Saliency}),
		gradient.New(w.PLNN.Net, gradient.Config{Method: gradient.GradientInput}),
	}
	curves, err := Figure3(w.PLNN, methods, xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.CPP) != 10 || len(c.NLCI) != 10 {
			t.Fatalf("%s: curve lengths %d/%d", c.Method, len(c.CPP), len(c.NLCI))
		}
		for _, v := range c.NLCI {
			if v < 0 || v > float64(len(xs)) {
				t.Fatalf("%s: NLCI out of range: %v", c.Method, v)
			}
		}
	}
	// OpenAPI (signed, exact) should achieve a non-trivial CPP by the end.
	oa := curves[0]
	if oa.CPP[len(oa.CPP)-1] <= 0 {
		t.Fatalf("OpenAPI CPP stayed at zero: %v", oa.CPP)
	}
	if _, err := Figure3(w.PLNN, methods, nil, 5); err == nil {
		t.Fatal("empty instance list accepted")
	}
}

func TestFigure4ConsistencySortedAndOpenAPIWins(t *testing.T) {
	w := testWorkbench(t)
	rng := rand.New(rand.NewSource(11))
	ids := w.SampleTestInstances(rng, 5)
	pairs, err := NeighbourPairs(w, ids)
	if err != nil {
		t.Fatal(err)
	}
	methods := []plm.Interpreter{
		core.New(core.Config{Seed: 12}),
		gradient.New(w.PLNN.Net, gradient.Config{Method: gradient.GradientInput}),
	}
	curves, err := Figure4(w.PLNN, methods, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		if len(c.CS) != len(pairs) {
			t.Fatalf("%s: %d values", c.Method, len(c.CS))
		}
		for i := 1; i < len(c.CS); i++ {
			if c.CS[i] > c.CS[i-1]+1e-12 {
				t.Fatalf("%s: CS not sorted descending", c.Method)
			}
		}
	}
	// Mean CS of OpenAPI should beat Gradient*Input (the paper's Figure 4
	// shape): gradient-input multiplies by the instance, which varies even
	// inside one region.
	mean := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	if mean(curves[0].CS) < mean(curves[1].CS)-1e-9 {
		t.Fatalf("OpenAPI consistency %v below Gradient*Input %v",
			mean(curves[0].CS), mean(curves[1].CS))
	}
	if _, err := Figure4(w.PLNN, methods, nil); err == nil {
		t.Fatal("empty pairs accepted")
	}
}

func TestSampleQualityOpenAPIPerfect(t *testing.T) {
	// The paper's central quantitative claim, in miniature: OpenAPI achieves
	// RD = 0, WD = 0 and near-zero L1Dist on both models, while baselines at
	// a coarse h do measurably worse. Besides the workbench models it runs
	// on a small untrained net and random instances.
	w := testWorkbench(t)
	rng := rand.New(rand.NewSource(13))
	ids := w.SampleTestInstances(rng, 4)
	xs := w.Test.Subset(ids, "probe").X
	small := ModelEntry{Name: "PLNN 5-8-3", Model: plnnModel(6, 5, 8, 3)}
	smallRNG := rand.New(rand.NewSource(7))
	smallXs := []mat.Vec{randVec(smallRNG, 5), randVec(smallRNG, 5), randVec(smallRNG, 5)}

	for _, entry := range append(w.Models(), small) {
		probes := xs
		if entry.Name == small.Name {
			probes = smallXs
		}
		methods := []plm.Interpreter{core.New(core.Config{Seed: 14})}
		methods = append(methods, StandardBaselines(1e-2, 15)...)
		rows, err := SampleQuality(entry.Model, methods, probes)
		if err != nil {
			t.Fatal(err)
		}
		oa := rows[0]
		if oa.Method != "OpenAPI" {
			t.Fatalf("row 0 = %s", oa.Method)
		}
		if oa.Failures > 0 {
			t.Fatalf("%s: OpenAPI failed on %d instances", entry.Name, oa.Failures)
		}
		if oa.AvgRD != 0 {
			t.Fatalf("%s: OpenAPI RD = %v, want 0", entry.Name, oa.AvgRD)
		}
		if oa.WD.Mean != 0 {
			t.Fatalf("%s: OpenAPI WD = %v, want 0", entry.Name, oa.WD.Mean)
		}
		if oa.L1.Mean > 1e-4 {
			t.Fatalf("%s: OpenAPI L1 = %v", entry.Name, oa.L1.Mean)
		}
	}
}

func TestQualityGridCoversAllMethods(t *testing.T) {
	w := testWorkbench(t)
	rng := rand.New(rand.NewSource(16))
	ids := w.SampleTestInstances(rng, 2)
	xs := w.Test.Subset(ids, "probe").X
	rows, err := QualityGrid(w.LMT, xs, []float64{1e-6, 1e-2}, 17)
	if err != nil {
		t.Fatal(err)
	}
	// OpenAPI + 4 baselines x 2 h values.
	if len(rows) != 1+8 {
		t.Fatalf("got %d rows", len(rows))
	}
	names := make([]string, 0, len(rows))
	for _, r := range rows {
		names = append(names, r.Method)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"OpenAPI", "Naive", "ZOO", "LIME-Linear", "LIME-Ridge"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing method %q in %v", want, names)
		}
	}
}
