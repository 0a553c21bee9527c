package repro

import (
	"net/http/httptest"
	"testing"

	"repro/internal/eval"
	"repro/internal/plm"
)

// evalConfigForTest keeps workbench construction fast in facade tests.
func evalConfigForTest() eval.WorkbenchConfig {
	return eval.WorkbenchConfig{Dataset: "mnist", Size: 8, PerClass: 20, NNEpochs: 10, Seed: 30}
}

func TestFacadeEndToEnd(t *testing.T) {
	model := MustTrainDemoPLNN(1)
	x := model.Example()
	c := model.Predict(x).ArgMax()

	interp, err := Interpret(model, x, c)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(model, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if dist := interp.Features.L1Dist(truth); dist > 1e-4 {
		t.Fatalf("facade interpretation off by %v", dist)
	}

	// DemoModel embeds a PLNN, so the region cache keys it through the
	// PLNN's pattern hook.
	if _, ok := RegionModel(model).(plm.PatternRegionModel); !ok {
		t.Fatal("DemoModel does not carry the PLNN's pattern hook")
	}
	lin, err := CacheRegions(model, 0).LocalAt(x)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Key != model.RegionKey(x) {
		t.Fatalf("cached region key %q != RegionKey %q", lin.Key, model.RegionKey(x))
	}
}

func TestFacadeInterpretAll(t *testing.T) {
	model := MustTrainDemoPLNN(2)
	x := model.Example()
	all, err := InterpretAll(model, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != model.Classes() {
		t.Fatalf("got %d interpretations", len(all))
	}
}

func TestFacadeTrainers(t *testing.T) {
	data, err := SyntheticDataset("fmnist", 3, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	plnn, err := TrainPLNN(4, data.X, data.Y, data.Classes(), []int{16}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plnn.Dim() != data.Dim() {
		t.Fatal("PLNN dim wrong")
	}
	tree, err := TrainLMT(5, data.X, data.Y, data.Classes())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Classes() != data.Classes() {
		t.Fatal("LMT classes wrong")
	}
	if _, err := TrainPLNN(6, nil, nil, 2, []int{4}, 1); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestFacadeWorkbenchAndOpenAPIConfig(t *testing.T) {
	w, err := NewWorkbench(evalConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	if w.Test.Len() == 0 || w.PLNN == nil || w.LMT == nil {
		t.Fatal("workbench incomplete")
	}
	o := NewOpenAPI(OpenAPIConfig{Seed: 9})
	if o.Name() != "OpenAPI" {
		t.Fatalf("Name = %q", o.Name())
	}
	x := w.Test.X[0]
	c := w.PLNN.Predict(x).ArgMax()
	interp, err := o.Interpret(w.PLNN, x, c)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(w.PLNN, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Features.L1Dist(truth) > 1e-4 {
		t.Fatal("configured interpreter inexact")
	}
}

func TestFacadeSyntheticDatasetErrors(t *testing.T) {
	if _, err := SyntheticDataset("imagenet", 1, 8, 2); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	d, err := SyntheticDataset("mnist", 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 20 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestFacadeSurrogateExtraction(t *testing.T) {
	model := MustTrainDemoPLNN(11)
	probes := []Vec{model.Example(), model.Example(), model.Example()}
	s, err := ExtractSurrogate(model, probes)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() == 0 {
		t.Fatal("no regions harvested")
	}
	fid, err := VerifySurrogate(s, model, []Vec{model.Example(), model.Example()})
	if err != nil {
		t.Fatal(err)
	}
	if fid.N != 2 {
		t.Fatalf("fidelity N = %d", fid.N)
	}
	if _, err := ExtractSurrogate(model, nil); err == nil {
		t.Fatal("empty probes accepted")
	}
}

func TestFacadeCompareQuality(t *testing.T) {
	model := MustTrainDemoPLNN(21)
	methods := append([]Interpreter{NewOpenAPI(OpenAPIConfig{Seed: 22})}, Baselines(1e-2, 23)...)
	xs := []Vec{model.Example(), model.Example(), model.Example()}
	rows, err := CompareQuality(model, methods, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Method != "OpenAPI" || rows[0].AvgRD != 0 {
		t.Fatalf("OpenAPI row = %+v", rows[0])
	}
}

func TestFacadeBinaryScoreWrapper(t *testing.T) {
	// Hide a trained 2-class model behind a single-score function, as real
	// fraud/credit APIs do, and confirm OpenAPI still recovers the exact
	// decision features.
	demo := MustTrainDemoPLNNBinary(13)
	scoreOnly := WrapBinaryScore(func(x Vec) float64 {
		return demo.Predict(x)[1]
	}, demo.Dim())
	x := demo.Example()
	interp, err := Interpret(scoreOnly, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(demo, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Features.L1Dist(truth) > 1e-4 {
		t.Fatalf("score-only interpretation off by %v", interp.Features.L1Dist(truth))
	}
}

func TestFacadeOverHTTP(t *testing.T) {
	// The headline scenario, end to end: a model hidden behind a real HTTP
	// API, interpreted exactly through the wire.
	model := MustTrainDemoPLNN(7)
	ts := httptest.NewServer(ServeModel(model, "demo"))
	defer ts.Close()

	remote, err := DialModel(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	x := model.Example()
	c := remote.Predict(x).ArgMax()
	counted := CountQueries(remote)
	interp, err := Interpret(counted, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Err() != nil {
		t.Fatalf("transport errors: %v", remote.Err())
	}
	truth, err := GroundTruth(model, x, c)
	if err != nil {
		t.Fatal(err)
	}
	if dist := interp.Features.L1Dist(truth); dist > 1e-4 {
		t.Fatalf("over-the-wire interpretation off by %v", dist)
	}
	if counted.Count() == 0 {
		t.Fatal("no queries counted")
	}
}
