package api

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
)

// hangingBackend blocks every batch until its context is cancelled — a
// worker that accepted the request and went silent.
type hangingBackend struct {
	Backend
	hung atomic.Int64 // batches currently parked
}

func (b *hangingBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	b.hung.Add(1)
	defer b.hung.Add(-1)
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestShardHedgeRescuesHangingBackend(t *testing.T) {
	// A backend that hangs mid-batch must not hang the batch: past the
	// hedge threshold its chunk is speculatively re-dispatched, the healthy
	// backend's answer wins bit-identically, and the hang is cancelled —
	// all without quarantining anyone (the hang lost a race; it did not
	// report an error of its own). The hanging backend comes first, so a
	// fresh shard seeds it with a one-row batch's only chunk.
	single := testModel(600)
	for _, n := range []int{64, 1} {
		hang := &hangingBackend{Backend: NewLocalBackend(testModel(600), "hang")}
		s, err := NewShardBackends([]Backend{
			hang,
			NewLocalBackend(testModel(600), "good"),
		}, ShardConfig{Hedge: true, HedgeMin: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		xs := shardProbes(n)
		done := make(chan error, 1)
		var got []mat.Vec
		go func() {
			var err error
			got, err = s.PredictBatch(xs)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("n=%d: hedging did not rescue the batch from the hanging backend", n)
		}
		for i, x := range xs {
			if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
				t.Fatalf("n=%d item %d: %v != %v", n, i, got[i], want)
			}
		}
		status := map[string]BackendStatus{}
		for _, st := range s.BackendStatus() {
			status[st.Name] = st
		}
		if status["hang"].Hedges == 0 {
			t.Fatalf("n=%d: no hedge launched against the hanging backend: %+v", n, status)
		}
		if status["good"].HedgeWins == 0 {
			t.Fatalf("n=%d: healthy backend recorded no hedge wins: %+v", n, status)
		}
		if status["hang"].State != "ok" || status["hang"].Failures != 0 {
			t.Fatalf("n=%d: losing a hedge race quarantined the backend: %+v", n, status["hang"])
		}
	}
}

// gatedErrBackend parks every batch on a gate, then errors — the slow
// backend whose failure lands after the hedge winner already answered.
type gatedErrBackend struct {
	Backend
	gate   chan struct{}
	parked atomic.Int64
}

func (b *gatedErrBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	b.parked.Add(1)
	<-b.gate
	return nil, errors.New("late failure")
}

func TestShardHedgedLoserErrorAfterWinnerDoesNotQuarantine(t *testing.T) {
	// The quarantine/hedge interaction the satellite task pins down: a
	// hedged loser that errors after the winner returned must be absorbed
	// as a cancelled race, not booked as a backend failure — otherwise one
	// slow-but-healthy worker gets quarantined every time it loses.
	loser := &gatedErrBackend{
		Backend: NewLocalBackend(testModel(601), "loser"),
		gate:    make(chan struct{}),
	}
	s, err := NewShardBackends([]Backend{
		NewLocalBackend(testModel(601), "winner"),
		loser,
	}, ShardConfig{Hedge: true, HedgeMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	single := testModel(601)
	xs := shardProbes(64)
	got, err := s.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
			t.Fatalf("item %d: %v != %v", i, got[i], want)
		}
	}
	// Release the loser's parked attempts: each now returns its error into
	// a batch that already finished without it.
	close(loser.gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st BackendStatus
		for _, b := range s.BackendStatus() {
			if b.Name == "loser" {
				st = b
			}
		}
		if st.Failures > 0 {
			t.Fatalf("late loser error was booked as a failure: %+v", st)
		}
		if st.State != "ok" {
			t.Fatalf("late loser error quarantined a healthy backend: %+v", st)
		}
		if st.HedgeCancels > 0 {
			break // the race losses were absorbed as cancels — done
		}
		if time.Now().After(deadline) {
			t.Fatalf("loser's late errors never accounted as hedge cancels: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestShardCallerCancellationDoesNotPoisonQuarantine(t *testing.T) {
	// Deadline propagation's accounting rule: a caller timeout must cancel
	// the fan-out and surface the context error, and the backend that was
	// innocently parked on the cancelled chunk stays unquarantined and
	// failure-free.
	hang := &hangingBackend{Backend: NewLocalBackend(testModel(602), "hang")}
	s, err := NewShardBackends([]Backend{hang}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.PredictBatchCtx(ctx, shardProbes(16)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled batch returned %v, want DeadlineExceeded", err)
	}
	st := s.BackendStatus()[0]
	if st.State != "ok" || st.Failures != 0 {
		t.Fatalf("caller cancellation poisoned quarantine accounting: %+v", st)
	}

	// Same rule on the single-prediction path.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	blocked := &hangingBackend{Backend: NewLocalBackend(testModel(602), "wait")}
	s2, err := NewShardBackends([]Backend{blocked}, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.PredictErrCtx(ctx2, mat.Vec{0.1, 0.2, 0.3, 0.4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled single returned %v, want DeadlineExceeded", err)
	}
	if st := s2.BackendStatus()[0]; st.State != "ok" || st.Failures != 0 {
		t.Fatalf("cancelled single poisoned quarantine accounting: %+v", st)
	}
}

func TestShardRemoveBackendDrainsInFlightChunks(t *testing.T) {
	// The registry-expiry drain end to end: a worker hangs mid-batch and is
	// then removed from the fleet (as an expired heartbeat would do); its
	// cancelled chunk must flow back onto the shared queue and the
	// surviving backend must complete the batch bit-identically.
	single := testModel(603)
	hang := &hangingBackend{Backend: NewLocalBackend(testModel(603), "hang")}
	s, err := NewShardBackends([]Backend{
		NewLocalBackend(testModel(603), "good"),
		hang,
	}, ShardConfig{}) // no hedging: only removal can rescue the chunk
	if err != nil {
		t.Fatal(err)
	}
	xs := shardProbes(64)
	done := make(chan error, 1)
	var got []mat.Vec
	go func() {
		var err error
		got, err = s.PredictBatch(xs)
		done <- err
	}()
	// Wait for the hanging backend to park a chunk, then expire it.
	deadline := time.Now().Add(5 * time.Second)
	for hang.hung.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hanging backend never received a chunk")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.RemoveBackend("hang") {
		t.Fatal("RemoveBackend did not find the hanging backend")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("removal did not drain the hung chunk back to the survivor")
	}
	for i, x := range xs {
		if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
			t.Fatalf("item %d: %v != %v", i, got[i], want)
		}
	}
	if got := s.Replicas(); got != 1 {
		t.Fatalf("shard has %d backends after removal, want 1", got)
	}
}

func TestShardDynamicMembershipBitIdentical(t *testing.T) {
	// Membership churn while serving: a dynamic shard grows from empty to
	// two backends and shrinks back to one, answering bit-identically at
	// every size (and refusing, rather than fabricating, at size zero).
	s := NewDynamicShard(ShardConfig{})
	if _, err := s.PredictBatch(shardProbes(4)); err == nil {
		t.Fatal("empty shard served a batch")
	}
	if _, err := s.PredictErr(mat.Vec{1, 0, 0, 0}); err == nil {
		t.Fatal("empty shard served a single")
	}
	if err := s.AddBackend(NewLocalBackend(testModel(604), "a")); err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 4 || s.Classes() != 3 {
		t.Fatalf("adopted shape %dx%d, want 4x3", s.Dim(), s.Classes())
	}
	single := testModel(604)
	xs := shardProbes(32)
	check := func(round string) {
		t.Helper()
		got, err := s.PredictBatch(xs)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		for i, x := range xs {
			if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
				t.Fatalf("%s item %d: %v != %v", round, i, got[i], want)
			}
		}
	}
	check("one backend")
	if err := s.AddBackend(NewLocalBackend(testModel(604), "b")); err != nil {
		t.Fatal(err)
	}
	check("two backends")
	if err := s.AddBackend(NewLocalBackend(benchShardModel(604), "c")); err == nil {
		t.Fatal("shape-mismatched backend joined")
	}
	if !s.RemoveBackend("a") {
		t.Fatal("RemoveBackend(a) found nothing")
	}
	if s.RemoveBackend("a") {
		t.Fatal("second RemoveBackend(a) succeeded")
	}
	check("after removal")
}

func TestShardFlappingUnderHedgeLoadConverges(t *testing.T) {
	// The satellite's -race gate: concurrent hedged batches against a
	// flapping backend must all come back bit-identical and in order, and
	// once the flapping stops the fleet serves cleanly again.
	single := testModel(605)
	flaky := &scriptedBackend{Backend: NewLocalBackend(testModel(605), "flaky")}
	s, err := NewShardBackends([]Backend{
		NewLocalBackend(testModel(605), "a"),
		NewLocalBackend(testModel(605), "b"),
		flaky,
	}, ShardConfig{
		QuarantineBase: time.Nanosecond, // immediate retry: maximum churn
		Hedge:          true,
		HedgeMin:       time.Microsecond, // hedge constantly: maximum racing
	})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	go func() {
		for !stop.Load() {
			flaky.down.Store(!flaky.down.Load())
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const callers, perCaller = 8, 23
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs := make([]mat.Vec, perCaller)
			for i := range xs {
				xs[i] = mat.Vec{float64(g) / callers, float64(i) / perCaller, 0.1, -0.1}
			}
			for round := 0; round < 6; round++ {
				out, err := s.PredictBatch(xs)
				if err != nil {
					errs <- err
					return
				}
				for i, x := range xs {
					if want := single.Predict(x); !out[i].EqualApprox(want, 0) {
						errs <- errors.New("hedged batch not bit-identical")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Convergence: the flapper settles up, and after its quarantine clears
	// it serves traffic again instead of being hedged into starvation.
	flaky.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := s.BackendStatus()[2].Queries
		if _, err := s.PredictBatch(shardProbes(64)); err != nil {
			t.Fatal(err)
		}
		if s.BackendStatus()[2].Queries > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flapper never converged back to serving: %+v", s.BackendStatus()[2])
		}
	}
}
