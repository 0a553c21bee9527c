package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
)

// The batched forward runs on recycled scratch (batch.go): every matrix it
// reads from the free list still holds the floats of some earlier forward.
// These tests pin that this never shows in an output bit, that a served
// batch allocates only what it returns, that concurrent forwards never
// share a scratch, and that the list stays within its byte cap.

// reuseSizes interleaves batch sizes so that each forward runs on scratch
// the one before grew or left dirty: a single row, a chunk below the
// fan-out rule's break-even, two above it, and a single row again.
var reuseSizes = []int{1, 33, 197, 256, 1}

// dirtyFreeList empties the free list and puts back one scratch whose
// floats all hold a signalling sentinel NaN and whose mask is all true, so
// a forward that reads an element before writing it shows in its output
// bits.
func dirtyFreeList(rows, width int) {
	freeScratch.Lock()
	freeScratch.list, freeScratch.bytes = nil, 0
	freeScratch.Unlock()
	s := new(forwardScratch)
	for i := range s.act {
		s.act[i].Reuse(rows, width)
	}
	s.tmp.Reuse(rows, width)
	for _, m := range []*mat.Dense{&s.act[0], &s.act[1], &s.tmp} {
		for i := 0; i < rows; i++ {
			row := m.RawRow(i)
			for j := range row {
				row[j] = math.Float64frombits(0x7ff4dead0bad0bad)
			}
		}
	}
	mask := s.maskOf(rows * width)
	for i := range mask {
		mask[i] = true
	}
	s.release()
}

func TestForwardScratchReuseMatchesScalarAllTiers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier mat.KernelTier) {
		rng := rand.New(rand.NewSource(321))
		for _, leak := range []float64{0, 0.1} {
			n := New(rand.New(rand.NewSource(322)), 64, 96, 48, 10).SetLeak(leak)
			dirtyFreeList(256, 96)
			for _, b := range reuseSizes {
				xs := batchOf(rng, b, 64)
				z := n.LogitsBatch(xs)
				p := n.PredictBatch(xs)
				masks := n.ActivationPatternBatch(xs)
				for i, x := range xs {
					sameBits(t, fmt.Sprintf("leak=%v b=%d logits", leak, b), z[i], n.Logits(x))
					sameBits(t, fmt.Sprintf("leak=%v b=%d probabilities", leak, b), p[i], n.Predict(x))
					want := n.ActivationPattern(x)
					if len(masks[i]) != len(want) {
						t.Fatalf("pattern length %d != %d", len(masks[i]), len(want))
					}
					for j := range want {
						if masks[i][j] != want[j] {
							t.Fatalf("leak=%v b=%d: pattern[%d][%d] batched=%v scalar=%v",
								leak, b, i, j, masks[i][j], want[j])
						}
					}
				}
			}
		}
	})
}

func TestMaxoutForwardScratchReuseMatchesScalarAllTiers(t *testing.T) {
	forEachKernelTier(t, func(t *testing.T, tier mat.KernelTier) {
		rng := rand.New(rand.NewSource(331))
		n := NewMaxout(rand.New(rand.NewSource(332)), 3, 64, 80, 40, 10)
		dirtyFreeList(256, 80)
		for _, b := range reuseSizes {
			xs := batchOf(rng, b, 64)
			z := n.LogitsBatch(xs)
			p := n.PredictBatch(xs)
			winners := n.WinnerPatternBatch(xs)
			for i, x := range xs {
				sameBits(t, fmt.Sprintf("b=%d maxout logits", b), z[i], n.Logits(x))
				sameBits(t, fmt.Sprintf("b=%d maxout probabilities", b), p[i], n.Predict(x))
				want := n.WinnerPattern(x)
				if len(winners[i]) != len(want) {
					t.Fatalf("winners length %d != %d", len(winners[i]), len(want))
				}
				for j := range want {
					if winners[i][j] != want[j] {
						t.Fatalf("b=%d: winners[%d][%d] batched=%d scalar=%d", b, i, j, winners[i][j], want[j])
					}
				}
			}
		}
	})
}

// sameBits fails t unless got and want are Float64bits-identical.
func sameBits(t *testing.T, label string, got, want mat.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (Float64bits)", label, i, got[i], want[i])
		}
	}
}

// TestBatchedForwardSteadyStateAllocs pins that once the free list is
// warm a forward that does not fan out allocates only what it returns: the
// backing array of its rows and the slice of row headers.
func TestBatchedForwardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(341))
	n := New(rng, 64, 256, 128, 100, 10)
	mo := NewMaxout(rng, 3, 64, 32, 10)
	xs := batchOf(rng, 33, 64) // a d = 64 probe-round chunk
	for _, c := range []struct {
		name string
		call func()
	}{
		{"PredictBatch", func() { n.PredictBatch(xs) }},
		{"LogitsBatch", func() { n.LogitsBatch(xs) }},
		{"ActivationPatternBatch", func() { n.ActivationPatternBatch(xs) }},
		{"Maxout.PredictBatch", func() { mo.PredictBatch(xs) }},
		{"Maxout.WinnerPatternBatch", func() { mo.WinnerPatternBatch(xs) }},
	} {
		c.call() // warm the free list and the GEMM's pack scratch
		if avg := testing.AllocsPerRun(50, c.call); avg > 2 {
			t.Errorf("%s allocates %.1f/op in steady state, want at most its 2 outputs", c.name, avg)
		}
	}
}

// TestConcurrentForwardsOfDifferentSizes runs forwards of different batch
// sizes on one Network from several goroutines at once; under -race this
// shows any scratch two forwards share, and every answer must keep the
// bits of a forward run alone.
func TestConcurrentForwardsOfDifferentSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(351))
	n := New(rng, 64, 96, 48, 10)
	batches := make([][]mat.Vec, 6)
	want := make([][]mat.Vec, len(batches))
	for i := range batches {
		batches[i] = batchOf(rng, []int{1, 33, 70, 197, 5, 128}[i], 64)
		want[i] = n.PredictBatch(batches[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(batches))
	for g := range batches {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				b := (g + r) % len(batches)
				got := n.PredictBatch(batches[b])
				for i := range got {
					for j, v := range got[i] {
						if math.Float64bits(v) != math.Float64bits(want[b][i][j]) {
							errs <- fmt.Sprintf("goroutine %d batch %d row %d col %d: %v, want %v", g, b, i, j, v, want[b][i][j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	checkFreeListWithinCap(t)
}

// TestFreeListKeepsNoOutsizedScratch pins the byte cap: a forward whose
// scratch alone exceeds maxFreeScratchBytes leaves it to the collector,
// and the list never holds more than the cap.
func TestFreeListKeepsNoOutsizedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(361))
	n := New(rng, 8, 1024, 10)
	rows := maxFreeScratchBytes/(8*1024) + 1 // act[0] alone is past the cap
	n.LogitsBatch(batchOf(rng, rows, 8))
	freeScratch.Lock()
	for _, s := range freeScratch.list {
		if s.act[0].Cap() >= rows*1024 {
			t.Errorf("free list kept a %d-byte scratch, cap %d", s.bytes(), maxFreeScratchBytes)
		}
	}
	freeScratch.Unlock()
	checkFreeListWithinCap(t)
}

// checkFreeListWithinCap fails t unless the free list's byte count is the
// sum of its scratches' and within the cap.
func checkFreeListWithinCap(t *testing.T) {
	t.Helper()
	freeScratch.Lock()
	defer freeScratch.Unlock()
	sum := 0
	for _, s := range freeScratch.list {
		sum += s.bytes()
	}
	if sum != freeScratch.bytes || sum > maxFreeScratchBytes {
		t.Errorf("free list holds %d bytes (counted %d), cap %d", sum, freeScratch.bytes, maxFreeScratchBytes)
	}
}
