package main

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// plain is a model with no optional interfaces at all.
type plain struct{}

func (plain) Predict(x mat.Vec) mat.Vec { return mat.Vec{0.5, 0.5} }
func (plain) Dim() int                  { return 2 }
func (plain) Classes() int              { return 2 }

// batchOnlyErr has an interface combination no decorator forwards.
type batchOnlyErr struct{ plain }

func (batchOnlyErr) PredictErr(x mat.Vec) (mat.Vec, error) { return nil, nil }

func TestDecoratorsForwardExactlyTheWrappedInterfaces(t *testing.T) {
	net := nn.New(rand.New(rand.NewSource(3)), 4, 8, 3)
	srv := httptest.NewServer(api.NewServer(&openbox.PLNN{Net: net}, "w"))
	defer srv.Close()
	client, err := api.Dial(srv.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	shard := api.NewDynamicShard(api.ShardConfig{})
	if err := shard.AddBackend(api.NewRemoteBackend(client)); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, inner := range []plm.Model{plain{}, &openbox.PLNN{Net: net}, shard, client} {
		got, err := tr.wrapModel(inner, "x", nil, nil)
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if want, have := capabilities(inner), capabilities(got); want != have {
			t.Errorf("%T: decorator implements %v, wrapped value %v", inner, have, want)
		}
	}
	if _, err := tr.wrapModel(batchOnlyErr{}, "x", nil, nil); err == nil {
		t.Error("an unforwardable interface set was wrapped anyway")
	}
}

// TestTracedStackKeepsAnswersAndLinksHops drives one batch through a
// traced router -> two workers and checks the answer is the untraced one,
// bit for bit, and that every hop's span hangs off the right parent.
func TestTracedStackKeepsAnswersAndLinksHops(t *testing.T) {
	const d = 16
	xs := make([]mat.Vec, 40)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = mat.NewVec(d)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	want, _ := (&openbox.PLNN{Net: newNetwork(d)}).PredictBatch(xs)

	tr := newTracer()
	st, err := newStack(d, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	s := &site{}
	client, err := st.dial(s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.wrapModel(client, spanClient, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.set(ref{op: 1})
	got, err := m.(batcher).PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	if digest(got) != digest(want) {
		t.Fatal("traced answer differs from the in-process forward")
	}

	spans := tr.take()
	byID := map[int64]span{}
	names := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		names[sp.Name]++
		if sp.Op != 1 {
			t.Errorf("%s span has op %d, want 1", sp.Name, sp.Op)
		}
	}
	parentOf := map[string]string{
		spanClientRT: spanClient, spanRouter: spanClientRT, spanShard: spanRouter,
		spanBackendRT: spanShard, spanWorker: spanBackendRT, spanForward: spanWorker,
	}
	for _, sp := range spans {
		if want, ok := parentOf[sp.Name]; ok && byID[sp.Parent].Name != want {
			t.Errorf("%s span's parent is %q, want %q", sp.Name, byID[sp.Parent].Name, want)
		}
	}
	for name := range parentOf {
		if names[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if names[spanWorker] < 2 || names[spanForward] != names[spanWorker] {
		t.Errorf("want one forward per worker request over several chunks, got %v", names)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "p", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "b", ID: 3, Parent: 1, Start: 40, End: 70},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past p
	}
	self := selfTimes(spans)
	if self[1] != 100-60-10 {
		t.Fatalf("self(p) = %v, want 30", self[1])
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct, beyond := tailPercentile(xs)
	if v != 89 || beyond != 10 || pct != 90 {
		t.Fatalf("got value %v at p%v with %d beyond", v, pct, beyond)
	}
}

func TestFailedOpMissesLatencyButKeepsItsTime(t *testing.T) {
	p := &pass{n: 3, lat: []float64{1, 2, 3}, bad: []bool{false, true, false}}
	lat := p.latency()
	if !math.IsInf(lat[1], 1) || lat[0] != 1 || lat[2] != 3 {
		t.Fatalf("latency() = %v", lat)
	}
	if sum(p.lat) != 6 {
		t.Fatal("a failed op's measured time was lost")
	}
}
