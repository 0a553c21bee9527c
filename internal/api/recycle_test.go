package api

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
)

// wideModel is a d = 784 network: at that width a 41-row frame fills one
// decode block, so a router's /batch rows sit in recycled blocks.
func wideModel() *openbox.PLNN {
	return &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(606)), 784, 16, 3)}
}

// sleepyBackend reads its chunk, sleeps through any cancellation, and reads
// the chunk again before answering — a hedge loser that goes on reading
// the router's rows well after dispatch has returned. It counts the chunks
// whose floats changed under it, and the attempts that woke cancelled.
type sleepyBackend struct {
	Backend
	delay     time.Duration
	changed   atomic.Int64
	cancelled atomic.Int64
}

func (b *sleepyBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	before := vecBits(xs)
	time.Sleep(b.delay)
	after := vecBits(xs)
	for i := range before {
		if before[i] != after[i] {
			b.changed.Add(1)
			break
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancelled by the winner: fail like a cancelled request, so the
		// backend never records a round trip and keeps hedging at HedgeMin.
		b.cancelled.Add(1)
		return nil, err
	}
	return b.Backend.PredictBatch(ctx, xs)
}

func vecBits(xs []mat.Vec) []uint64 {
	var out []uint64
	for _, x := range xs {
		for _, v := range x {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestHedgedRouterHoldsRecycledRows: a hedged router decodes each /batch
// into recycled blocks, one backend is so slow that its chunk is always
// won by a hedge on the other and its losing attempt goes on reading the
// rows after dispatch has returned and the response is written. Back-to-
// back requests with fresh rows must all answer bit-identically to the
// in-process forward, and the loser must never see its rows change: the
// blocks go back only once it has returned. CI runs it under the race
// detector.
func TestHedgedRouterHoldsRecycledRows(t *testing.T) {
	model := wideModel()
	worker := httptest.NewServer(NewServer(wideModel(), "fast"))
	defer worker.Close()
	wc, err := Dial(worker.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow := &sleepyBackend{Backend: NewLocalBackend(wideModel(), "slow"), delay: 30 * time.Millisecond}
	shard, err := NewShardBackends([]Backend{NewRemoteBackend(wc), slow},
		ShardConfig{Hedge: true, HedgeMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewServer(shard, "router"))
	defer router.Close()
	client, err := Dial(router.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if client.CodecName() != "binary" {
		t.Fatalf("client speaks %s, want binary", client.CodecName())
	}
	const requests = 12
	for r := range requests {
		xs := streamRows(int64(700+r), 96, 784) // two whole blocks and a tail
		got, err := client.PredictBatch(xs)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		want, _ := model.PredictBatch(xs)
		for i := range xs {
			if !got[i].EqualApprox(want[i], 0) {
				t.Fatalf("request %d item %d: %v != %v", r, i, got[i], want[i])
			}
		}
	}
	// Let the last losers wake before reading their counters.
	time.Sleep(2 * slow.delay)
	if n := slow.changed.Load(); n > 0 {
		t.Fatalf("%d hedge losers saw their rows change under them", n)
	}
	if slow.cancelled.Load() == 0 {
		t.Fatal("no hedge loser outlived its request; the test exercised nothing")
	}
}
