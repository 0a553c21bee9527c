package plm

import (
	"errors"
	"testing"

	"repro/internal/mat"
)

// fakeModel counts per-instance and batch calls.
type fakeModel struct {
	perCall    int
	batchCall  int
	failBatch  bool
	shortBatch bool
}

func (f *fakeModel) Predict(x mat.Vec) mat.Vec {
	f.perCall++
	return mat.Vec{0.5, 0.5}
}
func (f *fakeModel) Dim() int     { return 1 }
func (f *fakeModel) Classes() int { return 2 }

type fakeBatchModel struct {
	fakeModel
}

func (f *fakeBatchModel) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	f.batchCall++
	if f.failBatch {
		return nil, errors.New("batch endpoint down")
	}
	n := len(xs)
	if f.shortBatch {
		n-- // malformed server: one answer missing
	}
	out := make([]mat.Vec, n)
	for i := range out {
		out[i] = mat.Vec{0.9, 0.1}
	}
	return out, nil
}

func TestPredictAllUsesBatchWhenAvailable(t *testing.T) {
	m := &fakeBatchModel{}
	xs := []mat.Vec{{1}, {2}, {3}}
	out, err := PredictAll(m, xs)
	if err != nil || len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if m.batchCall != 1 || m.perCall != 0 {
		t.Fatalf("batch=%d per=%d", m.batchCall, m.perCall)
	}
	if out[0][0] != 0.9 {
		t.Fatal("batch results not used")
	}
}

// TestPredictAllReturnsBatchError: a failed batch comes back as its error,
// with no per-instance retry behind it.
func TestPredictAllReturnsBatchError(t *testing.T) {
	m := &fakeBatchModel{fakeModel: fakeModel{failBatch: true}}
	xs := []mat.Vec{{1}, {2}}
	out, err := PredictAll(m, xs)
	if err == nil || out != nil {
		t.Fatalf("failed batch gave %v, err %v", out, err)
	}
	if m.batchCall != 1 || m.perCall != 0 {
		t.Fatalf("batch=%d per=%d, want one batch and no per-instance calls", m.batchCall, m.perCall)
	}
}

// TestPredictAllRefusesShortBatch: a batch that answers fewer inputs than
// it was asked is an error, not a partial answer.
func TestPredictAllRefusesShortBatch(t *testing.T) {
	m := &fakeBatchModel{fakeModel: fakeModel{shortBatch: true}}
	xs := []mat.Vec{{1}, {2}}
	if out, err := PredictAll(m, xs); err == nil || out != nil {
		t.Fatalf("short batch gave %v, err %v", out, err)
	}
	if m.perCall != 0 {
		t.Fatalf("per-instance calls = %d", m.perCall)
	}
}

func TestPredictAllPlainModel(t *testing.T) {
	m := &fakeModel{}
	xs := []mat.Vec{{1}, {2}, {3}, {4}}
	out, err := PredictAll(m, xs)
	if err != nil || len(out) != 4 || m.perCall != 4 {
		t.Fatalf("plain path wrong: %d results, %d calls", len(out), m.perCall)
	}
}

func TestPredictAllEmpty(t *testing.T) {
	m := &fakeModel{}
	if out, err := PredictAll(m, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty input gave %d results", len(out))
	}
}
