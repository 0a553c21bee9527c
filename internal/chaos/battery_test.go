package chaos

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/eval"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
)

func chaosModel(seed int64) *openbox.PLNN {
	return &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(seed)), 4, 6, 3)}
}

func chaosProbes(rng *rand.Rand, n int) []mat.Vec {
	xs := make([]mat.Vec, n)
	for i := range xs {
		xs[i] = mat.Vec{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return xs
}

func TestBackendInjectsSeededFaults(t *testing.T) {
	// Determinism first: two backends over the same seed inject the same
	// fault sequence, and every fault is loud — an answered call is always
	// bit-identical to the clean model.
	model := chaosModel(900)
	f := Faults{Seed: 7, ErrorRate: 0.3}
	a := Wrap(api.NewLocalBackend(chaosModel(900), "a"), f)
	b := Wrap(api.NewLocalBackend(chaosModel(900), "b"), f)
	ctx := context.Background()
	xs := chaosProbes(rand.New(rand.NewSource(901)), 200)
	for i, x := range xs {
		ya, erra := a.PredictBatch(ctx, []mat.Vec{x})
		yb, errb := b.PredictBatch(ctx, []mat.Vec{x})
		if (erra == nil) != (errb == nil) {
			t.Fatalf("probe %d: same seed diverged (%v vs %v)", i, erra, errb)
		}
		if erra != nil {
			if !errors.Is(erra, ErrInjected) {
				t.Fatalf("probe %d: unexpected error %v", i, erra)
			}
			continue
		}
		if want := model.Predict(x); !ya[0].EqualApprox(want, 0) || !yb[0].EqualApprox(want, 0) {
			t.Fatalf("probe %d: injected fault corrupted an answer", i)
		}
	}
	c := a.Counts()
	if c.Errors == 0 || c.Errors == int64(len(xs)) {
		t.Fatalf("ErrorRate 0.3 over %d probes injected %d errors", len(xs), c.Errors)
	}
	if c != b.Counts() {
		t.Fatalf("same seed, different counts: %+v vs %+v", c, b.Counts())
	}
}

func TestBackendHangRespectsContext(t *testing.T) {
	b := Wrap(api.NewLocalBackend(chaosModel(902), "hang"), Faults{HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.PredictBatch(ctx, []mat.Vec{{0, 0, 0, 0}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung predict returned %v, want DeadlineExceeded", err)
	}
	if b.Counts().Hangs != 1 {
		t.Fatalf("counts = %+v, want 1 hang", b.Counts())
	}
}

// TestChaosBatteryBitIdenticalUnderChurn is the fleet acceptance battery:
// four backends — one clean, one flapping, one hanging on most batches,
// one killed mid-run — serve a 4096-instance batch plus concurrent
// foreground traffic under hedged dispatch, and every answer must be
// bit-identical to a healthy single replica, inside a bounded wall clock.
// Run under -race in CI; the seeds make each fault plan reproducible.
func TestChaosBatteryBitIdenticalUnderChurn(t *testing.T) {
	const seed = 910
	single := chaosModel(seed)

	clean := api.NewLocalBackend(chaosModel(seed), "clean")
	flappy := Wrap(api.NewLocalBackend(chaosModel(seed), "flappy"), Faults{
		Seed: 1, LatencyRate: 0.2, Latency: 2 * time.Millisecond, ErrorRate: 0.2,
	})
	hangs := Wrap(api.NewLocalBackend(chaosModel(seed), "hangs"), Faults{
		Seed: 2, HangRate: 0.75,
	})
	doomed := Wrap(api.NewLocalBackend(chaosModel(seed), "doomed"), Faults{
		Seed: 3, LatencyRate: 0.3, Latency: 2 * time.Millisecond,
	})

	s := api.NewDynamicShard(api.ShardConfig{
		QuarantineBase: time.Millisecond,
		Hedge:          true,
		HedgeMin:       5 * time.Millisecond,
	})
	for _, b := range []api.Backend{clean, flappy, hangs, doomed} {
		if err := s.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}

	churnCtx, stopChurn := context.WithCancel(context.Background())
	defer stopChurn()
	flapper := &Flapper{Backend: flappy, Period: 3 * time.Millisecond}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { defer churn.Done(); flapper.Run(churnCtx) }()

	// Kill the doomed backend mid-run, the way a registry expiry would:
	// removal must drain its in-flight chunks back to the survivors.
	churn.Add(1)
	go func() {
		defer churn.Done()
		time.Sleep(30 * time.Millisecond)
		if !s.RemoveBackend("doomed") {
			t.Error("RemoveBackend(doomed) found nothing")
		}
	}()

	start := time.Now()
	var workers sync.WaitGroup
	failures := make(chan error, 16)

	// The headline batch: 4096 instances through the churning fleet.
	batch := chaosProbes(rand.New(rand.NewSource(seed+1)), 4096)
	workers.Add(1)
	go func() {
		defer workers.Done()
		got, err := s.PredictBatch(batch)
		if err != nil {
			failures <- err
			return
		}
		for i, x := range batch {
			if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
				failures <- errors.New("batch answer not bit-identical to healthy replica")
				return
			}
		}
	}()

	// Foreground traffic riding alongside, with per-call tail latency.
	const callers, rounds = 4, 25
	lat := make([][]float64, callers)
	for g := 0; g < callers; g++ {
		g := g
		workers.Add(1)
		go func() {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed + 10 + int64(g)))
			for r := 0; r < rounds; r++ {
				xs := chaosProbes(rng, 32)
				t0 := time.Now()
				got, err := s.PredictBatch(xs)
				if err != nil {
					failures <- err
					return
				}
				lat[g] = append(lat[g], time.Since(t0).Seconds())
				for i, x := range xs {
					if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
						failures <- errors.New("foreground answer not bit-identical")
						return
					}
				}
			}
		}()
	}
	workers.Wait()
	stopChurn()
	churn.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}

	// Bounded tail: hedging must keep the hanging backend from dragging
	// p99 anywhere near a caller-visible stall. The bound is generous —
	// it exists to catch "a hang leaked into the answer path", not to
	// benchmark the machine.
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	if p99 := eval.Percentile(all, 0.99); p99 > 5.0 {
		t.Fatalf("foreground p99 %.2fs under churn, want bounded (<5s)", p99)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("battery took %v, want bounded wall clock", elapsed)
	}
	if flapper.Flips.Load() == 0 {
		t.Fatal("flapper never flipped: the battery did not churn")
	}
	if hangs.Counts().Hangs == 0 {
		t.Fatal("hanging backend never hung: the battery did not exercise hedging")
	}
	if got := s.Replicas(); got != 3 {
		t.Fatalf("fleet has %d backends after the kill, want 3", got)
	}
}

// TestChaosMiddlewareWireFaultsStayBitIdentical exercises the wire-level
// faults a remote backend's client actually sees — connection resets and
// truncated response bodies — and asserts the shard still answers
// bit-identically by routing around the sick peer.
func TestChaosMiddlewareWireFaultsStayBitIdentical(t *testing.T) {
	const seed = 920
	single := chaosModel(seed)

	mw := NewMiddleware(api.NewServer(chaosModel(seed), "sick"), Faults{
		Seed: 4, ResetRate: 0.2, TruncateRate: 0.2,
	})
	sick := httptest.NewServer(mw)
	defer sick.Close()
	// Dial itself crosses the faulty wire; retry it the way any client
	// facing a resetting peer would.
	var c *api.Client
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if c, err = api.Dial(sick.URL, nil, 0); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}

	s, err := api.NewShardBackends([]api.Backend{
		api.NewLocalBackend(chaosModel(seed), "clean"),
		api.NewRemoteBackend(c),
	}, api.ShardConfig{QuarantineBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for round := 0; round < 20; round++ {
		xs := chaosProbes(rng, 64)
		got, err := s.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
				t.Fatalf("round %d item %d: wire faults corrupted an answer", round, i)
			}
		}
	}
	counts := mw.Counts()
	if counts.Resets == 0 && counts.Truncates == 0 {
		t.Fatalf("middleware injected nothing: %+v", counts)
	}
}
