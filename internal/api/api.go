// Package api is the "cloud service" substrate of the reproduction: it hides
// a PLM behind the narrow surface the paper assumes — class probabilities
// in, nothing else out — and provides the middleware a real deployment has:
// query counting, response caching, retries, and fault injection for the
// failure-mode tests.
//
// Everything here consumes and produces plm.Model, so interpreters cannot
// tell a local model, an instrumented one, and an HTTP remote apart.
package api

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/plm"
)

// Counter wraps a model and counts Predict calls. It is safe for concurrent
// use. The paper's efficiency claims are stated in API queries; this is how
// the harness measures them.
type Counter struct {
	inner plm.Model
	n     atomic.Int64
}

// NewCounter wraps inner with a query counter.
func NewCounter(inner plm.Model) *Counter { return &Counter{inner: inner} }

// Predict forwards to the wrapped model and increments the counter.
func (c *Counter) Predict(x mat.Vec) mat.Vec {
	c.n.Add(1)
	return c.inner.Predict(x)
}

// Dim forwards to the wrapped model.
func (c *Counter) Dim() int { return c.inner.Dim() }

// Classes forwards to the wrapped model.
func (c *Counter) Classes() int { return c.inner.Classes() }

// PredictBatch forwards a batch to the wrapped model (using its batch
// endpoint when present), counting one query per item.
func (c *Counter) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	c.n.Add(int64(len(xs)))
	return plm.PredictAll(c.inner, xs)
}

// Count returns the number of Predict calls so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Flaky wraps a model and corrupts a fraction of responses — the fault
// injector for robustness tests. A corrupted response is the uniform
// distribution over classes, which is what a degraded service might return.
type Flaky struct {
	inner plm.Model
	rate  float64
	mu    sync.Mutex
	rng   *rand.Rand
	fails atomic.Int64
}

// NewFlaky wraps inner; each Predict independently fails with probability
// rate (clamped to [0,1]). A nil rng defaults to a deterministically seeded
// source, mirroring core.Config.setDefaults.
func NewFlaky(inner plm.Model, rate float64, rng *rand.Rand) *Flaky {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	return &Flaky{inner: inner, rate: rate, rng: rng}
}

// Predict returns a uniform distribution with probability rate, otherwise
// forwards.
func (f *Flaky) Predict(x mat.Vec) mat.Vec {
	f.mu.Lock()
	bad := f.rng.Float64() < f.rate
	f.mu.Unlock()
	if bad {
		f.fails.Add(1)
		out := make(mat.Vec, f.inner.Classes())
		return out.Fill(1 / float64(f.inner.Classes()))
	}
	return f.inner.Predict(x)
}

// PredictBatch corrupts each row independently with probability rate —
// same seeded RNG as Predict, so a batched robustness test draws from the
// identical fault stream — and forwards the whole batch to the inner
// model's batched path, overwriting the corrupted rows afterwards. The
// batch itself never errors: Flaky models degraded answers, not transport
// failure (that's the chaos package's job).
func (f *Flaky) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	bad := f.rollRows(len(xs))
	ys, err := plm.PredictAll(f.inner, xs)
	if err != nil {
		return nil, err
	}
	classes := f.inner.Classes()
	for i := range ys {
		if !bad[i] {
			continue
		}
		f.fails.Add(1)
		u := make(mat.Vec, classes)
		ys[i] = u.Fill(1 / float64(classes))
	}
	return ys, nil
}

// rollRows draws one corruption decision per row from the seeded stream.
func (f *Flaky) rollRows(n int) []bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	bad := make([]bool, n)
	for i := range bad {
		bad[i] = f.rng.Float64() < f.rate
	}
	return bad
}

// Dim forwards to the wrapped model.
func (f *Flaky) Dim() int { return f.inner.Dim() }

// Classes forwards to the wrapped model.
func (f *Flaky) Classes() int { return f.inner.Classes() }

// Failures returns the number of corrupted responses so far.
func (f *Flaky) Failures() int64 { return f.fails.Load() }

// Budget wraps a model with a query quota, the way metered cloud APIs do.
// Once the quota is spent every further Predict returns the uniform
// distribution and the exhaustion is recorded; callers must check Exhausted
// after an interpretation run, exactly like checking Client.Err.
type Budget struct {
	inner plm.Model
	max   int64
	used  atomic.Int64
}

// NewBudget wraps inner with a quota of max queries (max <= 0 means
// unlimited, making the wrapper a plain pass-through counter).
func NewBudget(inner plm.Model, max int64) *Budget {
	return &Budget{inner: inner, max: max}
}

// Predict forwards while quota remains, then degrades to uniform responses.
func (b *Budget) Predict(x mat.Vec) mat.Vec {
	used := b.used.Add(1)
	if b.max > 0 && used > b.max {
		out := make(mat.Vec, b.inner.Classes())
		return out.Fill(1 / float64(b.inner.Classes()))
	}
	return b.inner.Predict(x)
}

// Dim forwards to the wrapped model.
func (b *Budget) Dim() int { return b.inner.Dim() }

// Classes forwards to the wrapped model.
func (b *Budget) Classes() int { return b.inner.Classes() }

// Used returns the number of queries attempted so far.
func (b *Budget) Used() int64 { return b.used.Load() }

// Remaining returns the quota left, or -1 when unlimited.
func (b *Budget) Remaining() int64 {
	if b.max <= 0 {
		return -1
	}
	rem := b.max - b.used.Load()
	if rem < 0 {
		return 0
	}
	return rem
}

// Exhausted reports whether any query was answered with the degraded
// uniform response.
func (b *Budget) Exhausted() bool { return b.max > 0 && b.used.Load() > b.max }

var _ plm.Model = (*Budget)(nil)

// Validate checks that a model behaves like a probability oracle on a probe
// input: correct output length, non-negative entries, sum ≈ 1. Useful as a
// handshake before running a long interpretation job against a remote.
func Validate(m plm.Model, probe mat.Vec) error {
	if len(probe) != m.Dim() {
		return fmt.Errorf("api: probe length %d != model dim %d", len(probe), m.Dim())
	}
	p := m.Predict(probe)
	if len(p) != m.Classes() {
		return fmt.Errorf("api: model returned %d probabilities, want %d", len(p), m.Classes())
	}
	var sum float64
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("api: probability %d is %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("api: probabilities sum to %v", sum)
	}
	return nil
}
