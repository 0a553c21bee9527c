package repro

// Integration tests that exercise the whole stack in one motion: workbench
// training, the HTTP API layer, the OpenAPI interpreter, the evaluation
// metrics, and the extraction extension — everything a downstream adopter
// would wire together.

import (
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

func TestIntegrationQualityGridOverHTTP(t *testing.T) {
	// The Figures 5-7 pipeline with the model genuinely behind HTTP:
	// metrics still need the white-box model for ground truth, but every
	// interpreter probe crosses the wire.
	w, err := NewWorkbench(evalConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ServeModel(w.PLNN, "wb-plnn"))
	defer ts.Close()
	remote, err := DialModel(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// remoteRegionModel probes over HTTP but answers region questions from
	// the local white box — the evaluation harness's legitimate dual role.
	rm := &remoteRegionModel{Client: remote, white: w.PLNN}
	xs := w.Test.X[:4]
	methods := []plm.Interpreter{core.New(core.Config{Seed: 1})}
	rows, err := eval.SampleQuality(rm, methods, xs)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Err() != nil {
		t.Fatalf("transport errors: %v", remote.Err())
	}
	oa := rows[0]
	if oa.Failures > 0 || oa.AvgRD != 0 || oa.WD.Mean != 0 {
		t.Fatalf("over-the-wire quality broken: %+v", oa)
	}
	if oa.L1.Mean > 1e-4 {
		t.Fatalf("over-the-wire L1 = %v", oa.L1.Mean)
	}
}

// remoteRegionModel predicts through an HTTP client while deferring
// white-box region questions to the local model.
type remoteRegionModel struct {
	*api.Client
	white plm.RegionModel
}

func (r *remoteRegionModel) RegionKey(x Vec) string { return r.white.RegionKey(x) }
func (r *remoteRegionModel) LocalAt(x Vec) (*plm.Linear, error) {
	return r.white.LocalAt(x)
}

func TestIntegrationBudgetedInterpretation(t *testing.T) {
	// A metered API with a quota too small for one OpenAPI run: the run
	// must NOT silently return a wrong answer — either it fails to
	// converge, or the caller sees Exhausted() and discards the result.
	model := MustTrainDemoPLNN(41)
	budget := api.NewBudget(model, 30) // one iteration needs d+2 ≈ 102
	o := core.New(core.Config{Seed: 42, MaxIterations: 6})
	x := model.Example()
	interp, err := o.Interpret(budget, x, 0)
	if err == nil && !budget.Exhausted() {
		t.Fatal("tiny budget neither failed nor reported exhaustion")
	}
	if err == nil && budget.Exhausted() {
		// Degraded-to-uniform responses admit the all-zero interpretation;
		// a caller checking Exhausted() knows to discard it.
		if interp.Features.NormInf() > 1e-6 {
			t.Fatalf("budget-degraded run returned non-trivial features: %v",
				interp.Features.NormInf())
		}
	}
}

func TestIntegrationExtractThenServeSurrogate(t *testing.T) {
	// Full extraction loop: steal regions over HTTP, then serve the clone
	// itself as an API and verify the two services agree near the probes.
	victim := MustTrainDemoPLNN(43)
	vs := httptest.NewServer(ServeModel(victim, "victim"))
	defer vs.Close()
	remote, err := DialModel(vs.URL)
	if err != nil {
		t.Fatal(err)
	}
	probes := []Vec{victim.Example(), victim.Example()}
	clone, err := ExtractSurrogate(remote, probes)
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(ServeModel(clone, "clone"))
	defer cs.Close()
	cloneRemote, err := DialModel(cs.URL)
	if err != nil {
		t.Fatal(err)
	}
	// At a probe the two services must agree exactly (same region).
	want := remote.Predict(probes[0])
	got := cloneRemote.Predict(probes[0])
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("served clone %v != victim %v at probe", got, want)
	}
}

func TestIntegrationShardedReplicasBitIdentical(t *testing.T) {
	// The sharding acceptance gate: the exact serving stack of
	// `plmserve -replicas N` (shard router behind api.Server) must hand a
	// pooled InterpretMany bit-identical interpretations at every replica
	// count — the split is pure routing, never science.
	rng := rand.New(rand.NewSource(48))
	model := &openbox.PLNN{Net: nn.New(rng, 16, 32, 16, 4)}
	xs := make([]Vec, 16)
	for i := range xs {
		xs[i] = make(Vec, 16)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}

	run := func(replicas int) []core.Result {
		slots := make([]Model, replicas)
		for i := range slots {
			slots[i] = model
		}
		shard, err := ShardModel(slots...)
		if err != nil {
			t.Fatal(err)
		}
		srv := api.NewServer(shard, "shard-gate")
		ts := httptest.NewServer(srv)
		defer ts.Close()
		client, err := api.Dial(ts.URL, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		results := core.NewPool(core.Config{Seed: 49}, 8).InterpretMany(client, xs)
		if err := client.Err(); err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("replicas=%d instance %d failed: %v", replicas, i, r.Err)
			}
		}
		if replicas > 1 {
			// The fan-out must actually engage: every replica slot serves
			// part of the batched probes.
			for slot, q := range shard.ReplicaQueries() {
				if q == 0 {
					t.Fatalf("replicas=%d: slot %d served nothing", replicas, slot)
				}
			}
		}
		return results
	}

	base := run(1)
	for _, n := range []int{2, 4} {
		got := run(n)
		for i := range base {
			if !reflect.DeepEqual(base[i].Interp, got[i].Interp) {
				t.Fatalf("instance %d: %d-replica interpretation differs from 1-replica", i, n)
			}
		}
	}
}

func TestIntegrationPoolOverHTTP(t *testing.T) {
	// Concurrent interpretation against one HTTP server: the server must
	// survive parallel load and every result must be exact.
	model := MustTrainDemoPLNN(44)
	ts := httptest.NewServer(ServeModel(model, "pool-target"))
	defer ts.Close()
	remote, err := DialModel(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(core.Config{Seed: 45}, 3)
	xs := []Vec{model.Example(), model.Example(), model.Example(), model.Example()}
	results := pool.InterpretMany(remote, xs)
	if remote.Err() != nil {
		t.Fatalf("transport errors under concurrency: %v", remote.Err())
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("instance %d failed: %v", i, r.Err)
		}
		truth, err := GroundTruth(model, xs[i], r.Interp.Class)
		if err != nil {
			t.Fatal(err)
		}
		if r.Interp.Features.L1Dist(truth) > 1e-4 {
			t.Fatalf("instance %d inexact over HTTP pool", i)
		}
	}
}
