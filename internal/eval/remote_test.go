package eval

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/openbox"
	"repro/internal/plm"
)

func TestQualityOverAPIMatchesLocal(t *testing.T) {
	// The remote harness must not change the science: OpenAPI over a
	// sharded HTTP hop stays exact, and the wire stats prove the probes
	// batched exactly as the interpreter issued them.
	w, err := NewWorkbench(WorkbenchConfig{Size: 8, PerClass: 20, NNEpochs: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	xs := w.Test.X[:3]
	methods := []plm.Interpreter{core.New(core.Config{Seed: 32})}
	bench, err := ServeRemote(w.PLNN, "remote-plnn", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()
	rows, wire, err := bench.Quality(openbox.CacheRegionModelOpts(w.PLNN, openbox.StoreOptions{}), methods, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Failures > 0 || r.AvgRD != 0 || r.WD.Mean != 0 {
		t.Fatalf("remote quality broken: %+v", r)
	}
	if r.L1.Mean > 1e-4 {
		t.Fatalf("remote L1 = %v", r.L1.Mean)
	}
	if wire.Queries == 0 || wire.RoundTrips == 0 {
		t.Fatalf("no wire traffic recorded: %+v", wire)
	}
	// Per-iteration batching alone guarantees far more than one query per
	// round trip (each sample set is d+k probes in one POST /batch).
	if wire.QueriesPerTrip() < 2 {
		t.Fatalf("queries/trip = %v, batching did not engage", wire.QueriesPerTrip())
	}
	// Per instance: one /predict argmax, one anchor and one /batch per
	// round, so the harness neither splits nor merges a batch.
	n := float64(len(xs))
	if iters := math.Round(r.AvgIterations * n); float64(wire.RoundTrips) != 2*n+iters {
		t.Fatalf("round trips = %d, want 2·%v + %v iterations", wire.RoundTrips, n, iters)
	}
}

func TestServeRemoteLifecycle(t *testing.T) {
	w, err := NewWorkbench(WorkbenchConfig{Size: 8, PerClass: 20, NNEpochs: 5, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := ServeRemote(w.PLNN, "lifecycle", 3)
	if err != nil {
		t.Fatal(err)
	}
	if bench.URL() == "" {
		t.Fatal("no URL")
	}
	m := bench.Model()
	if m.Dim() != w.PLNN.Dim() || m.Classes() != w.PLNN.Classes() {
		t.Fatalf("meta mismatch: %d/%d", m.Dim(), m.Classes())
	}
	x := w.Test.X[0]
	got := m.Predict(x)
	if want := w.PLNN.Predict(x); !got.EqualApprox(want, 1e-12) {
		t.Fatalf("remote %v != local %v", got, want)
	}
	if err := bench.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close must not panic the server.
	_ = bench.Close()
}

func TestRemoteBenchReusedAcrossRepetitions(t *testing.T) {
	// The persistent-server contract cmd/experiments relies on: one bench
	// serves several quality repetitions, each Quality call reports only
	// its own wire cost, and the science is identical run over run.
	w, err := NewWorkbench(WorkbenchConfig{Size: 8, PerClass: 20, NNEpochs: 5, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := ServeRemote(w.PLNN, "persistent", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()
	white := openbox.CacheRegionModelOpts(w.PLNN, openbox.StoreOptions{})
	xs := w.Test.X[:2]

	var wires []WireStats
	var prevRows []QualityRow
	for rep := 0; rep < 2; rep++ {
		methods := []plm.Interpreter{core.New(core.Config{Seed: 36})}
		rows, wire, err := bench.Quality(white, methods, xs)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if len(rows) != 1 || rows[0].Failures > 0 {
			t.Fatalf("rep %d rows: %+v", rep, rows)
		}
		if prevRows != nil && rows[0].L1.Mean != prevRows[0].L1.Mean {
			t.Fatalf("repetitions disagree: %v vs %v", rows[0].L1.Mean, prevRows[0].L1.Mean)
		}
		prevRows = rows
		wires = append(wires, wire)
	}
	// Identical work: each rep reports its own (equal) query count, not a
	// cumulative total — and the server-side totals are their sum.
	if wires[0].Queries == 0 || wires[0].Queries != wires[1].Queries {
		t.Fatalf("per-rep wire stats not isolated: %+v", wires)
	}
	if got := bench.Server.Queries(); got != wires[0].Queries+wires[1].Queries {
		t.Fatalf("server counted %d queries, reps report %d + %d", got, wires[0].Queries, wires[1].Queries)
	}
}
