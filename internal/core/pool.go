package core

import (
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/plm"
)

// Pool interprets many instances concurrently. A single OpenAPI value is
// not safe for concurrent use (it owns one RNG stream), so the pool keeps
// one interpreter per worker, seeded deterministically from the base
// configuration. Jobs are assigned by static striping — worker i handles
// instances i, i+n, i+2n, ... — so each instance is always interpreted by
// the same worker with the same RNG stream position: results are
// bit-reproducible for a fixed worker count, independent of goroutine
// scheduling and of how the model batches queries.
type Pool struct {
	workers []*OpenAPI
}

// NewPool builds a pool of n workers derived from cfg; worker i uses seed
// cfg.Seed + i. It panics if n <= 0. A caller-supplied cfg.RNG is ignored —
// shared RNG state is exactly what the pool exists to avoid.
func NewPool(cfg Config, n int) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("core: pool size %d", n))
	}
	p := &Pool{workers: make([]*OpenAPI, n)}
	for i := range p.workers {
		wcfg := cfg
		wcfg.RNG = nil
		wcfg.Seed = cfg.Seed + int64(i)
		p.workers[i] = New(wcfg)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Result pairs one instance's interpretation with its slot and any error.
type Result struct {
	Index  int
	Interp *plm.Interpretation
	Err    error
}

// InterpretMany explains model's prediction on every instance for its
// predicted class, fanning the work across the pool. The returned slice is
// ordered like xs; failed instances carry their error.
//
// The argmax pre-query for all instances is issued as one batch up front —
// a single round trip against a batch-capable service — and each prediction
// doubles as the anchor probe of its interpretation, so no instance is
// predicted twice. While one worker solves its linear systems, the others'
// sample-set probes are in flight, each set as one PredictAll batch.
//
// A batch that fails fails every instance it carried, with the batch's
// error. Remote models still degrade a failed single Predict to a uniform
// response and record it stickily, so after a run against an api.Client,
// check its Err before trusting the interpretations.
func (p *Pool) InterpretMany(model plm.Model, xs []mat.Vec) []Result {
	results := make([]Result, len(xs))
	if len(xs) == 0 {
		return results
	}
	// Validate instance shapes before the batched pre-query: one malformed
	// instance must fail its own Result, not panic the whole batch inside
	// the model's forward pass (the serial path rejects it with the same
	// error via checkInstance).
	valid := make([]int, 0, len(xs))
	for i, x := range xs {
		if len(x) != model.Dim() {
			results[i] = Result{Index: i, Err: fmt.Errorf("core: instance length %d != model dim %d", len(x), model.Dim())}
			continue
		}
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return results
	}
	vxs := make([]mat.Vec, len(valid))
	for j, i := range valid {
		vxs[j] = xs[i]
	}
	// Snapshot any sticky error before probing: the check below must be
	// able to tell a fresh pre-query failure from an error a reused client
	// recorded in some earlier run.
	var stale error
	if se, ok := model.(interface{ Err() error }); ok {
		stale = se.Err()
	}
	ys, err := plm.PredictAll(model, vxs)
	if err != nil {
		for _, i := range valid {
			results[i] = Result{Index: i, Err: fmt.Errorf("core: argmax pre-query failed: %w", err)}
		}
		return results
	}
	y0s := make([]mat.Vec, len(xs))
	for j, i := range valid {
		y0s[i] = ys[j]
	}
	// Remote models degrade transport failures to uniform distributions, so
	// a dead API turns the argmax pre-query into garbage anchors: every job
	// would then "converge" on class 0 of a constant model. When the model
	// exposes a sticky error (api.Client), check it now and fail every
	// affected instance fast instead of burning MaxIterations of probes per
	// job against a wire that is already known broken. A sticky error that
	// predates this run is ambiguous — record() keeps only the first error,
	// so a fresh failure would be invisible behind it — and silently wrong
	// anchors are worse than a loud abort, so those fail too, with a
	// message pointing at ResetErr.
	if se, ok := model.(interface{ Err() error }); ok {
		if err := se.Err(); err != nil {
			wrap := func() error { return fmt.Errorf("core: argmax pre-query failed: %w", err) }
			if stale != nil {
				wrap = func() error {
					return fmt.Errorf("core: model carries a sticky error predating this run (ResetErr before bulk interpretation): %w", err)
				}
			}
			for i := range results {
				if results[i].Err != nil {
					continue // keep the precise shape-validation error
				}
				results[i] = Result{Index: i, Err: wrap()}
			}
			return results
		}
	}
	n := len(p.workers)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int, o *OpenAPI) {
			defer wg.Done()
			for i := w; i < len(xs); i += n {
				if y0s[i] == nil {
					continue // rejected before the pre-query
				}
				c := y0s[i].ArgMax()
				interp, err := o.InterpretWithPrediction(model, xs[i], y0s[i], c)
				results[i] = Result{Index: i, Interp: interp, Err: err}
			}
		}(w, p.workers[w])
	}
	wg.Wait()
	return results
}
