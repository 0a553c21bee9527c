// Package core implements OpenAPI, the paper's contribution: exact and
// consistent interpretation of a piecewise linear model that is reachable
// only through a prediction API.
//
// For an instance x0 and class pair (c, c'), the locally linear classifier
// around x0 satisfies the log-odds identity
//
//	D_{c,c'}^T x + B_{c,c'} = ln(y_c / y_{c'})         (paper Eq. 2)
//
// for every x in the region. OpenAPI samples d+k points in a hypercube
// around x0 (k = Config.ExtraChecks; the paper's Ω_{d+2} is k = 1), solves
// the square system built from x0 and the first d samples, and accepts the
// solution only when every held-out equation is consistent — which, by the
// paper's Theorem 2, happens exactly when all points share x0's region
// (with probability 1). On inconsistency — or on a numerically singular
// draw, a probability-0 event under Lemma 1 — it divides the hypercube edge
// by Config.ShrinkFactor and resamples (Algorithm 1).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/sample"
)

// Config tunes Algorithm 1. The zero value gives the paper's settings.
type Config struct {
	// MaxIterations is the paper's m: the cap on resample-and-halve rounds.
	// The paper uses 100 and observes convergence within 20. Default 100.
	MaxIterations int
	// InitialEdge is the starting hypercube edge length r. Default 1.0.
	InitialEdge float64
	// Tolerance bounds the accepted residual of each consistency equation,
	// relative to the magnitude of the log-odds involved. Default 1e-9.
	// The paper works in exact arithmetic where any nonzero residual means
	// inconsistency; in float64 the tolerance separates rounding error
	// (accept) from region mixing (reject). 1e-9 sits about three orders
	// above observed round-off at image dimensionalities while rejecting
	// mixes reliably; see DESIGN.md §5.
	Tolerance float64
	// ExtraChecks is the number of held-out verification equations. The
	// paper uses one (Ω has d+2 rows); every additional check multiplies
	// the false-accept probability of a mixed sample set by another
	// near-zero factor for one extra query per iteration. Default 2.
	ExtraChecks int
	// ShrinkFactor divides the hypercube edge after an inconsistent round.
	// The paper halves (2.0, the default); larger factors reach small
	// regions in fewer rounds at the cost of overshooting, smaller factors
	// shrink gently. Must exceed 1.
	ShrinkFactor float64
	// Seed seeds the sampler when RNG is nil. Ignored otherwise.
	Seed int64
	// RNG, when non-nil, supplies all randomness.
	RNG *rand.Rand
}

func (c *Config) setDefaults() {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 100
	}
	if c.InitialEdge <= 0 {
		c.InitialEdge = 1.0
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-9
	}
	if c.ExtraChecks <= 0 {
		c.ExtraChecks = 2
	}
	if c.ShrinkFactor <= 1 {
		c.ShrinkFactor = 2
	}
	if c.RNG == nil {
		c.RNG = rand.New(rand.NewSource(c.Seed))
	}
}

// ErrNoConvergence is returned when MaxIterations rounds never produced a
// consistent system — per the paper this has probability 0 unless x0 sits
// exactly on a region boundary.
var ErrNoConvergence = errors.New("core: OpenAPI did not converge within the iteration budget")

// OpenAPI is the interpreter. Create it with New; the zero value works too
// (defaults are applied on first use).
type OpenAPI struct {
	cfg Config
}

// New returns an OpenAPI interpreter with the given configuration.
func New(cfg Config) *OpenAPI {
	cfg.setDefaults()
	return &OpenAPI{cfg: cfg}
}

var _ plm.Interpreter = (*OpenAPI)(nil)

// Name implements plm.Interpreter.
func (o *OpenAPI) Name() string { return "OpenAPI" }

// Interpret recovers the exact decision features D_c of model at x0 for
// class c, using only Predict calls.
func (o *OpenAPI) Interpret(model plm.Model, x0 mat.Vec, c int) (*plm.Interpretation, error) {
	o.cfg.setDefaults()
	if err := checkInstance(model, x0, c); err != nil {
		return nil, err
	}
	// The anchor probe goes through the batch path so a batch-capable
	// remote reports a failure as an error here instead of degrading it to
	// a uniform answer; against a plain model this is one Predict.
	ys, err := plm.PredictAll(model, []mat.Vec{x0})
	if err != nil {
		return nil, fmt.Errorf("core: anchor probe: %w", err)
	}
	return o.interpret(model, x0, ys[0], c)
}

// InterpretWithPrediction is Interpret for callers that already hold the
// model's prediction at x0 — a pool that pre-queried the argmax of many
// instances in one batched round trip hands each worker its y0 here, so the
// anchor probe is never re-issued. The supplied prediction still counts as
// one query in the returned Interpretation, keeping the accounting identical
// to Interpret.
func (o *OpenAPI) InterpretWithPrediction(model plm.Model, x0, y0 mat.Vec, c int) (*plm.Interpretation, error) {
	o.cfg.setDefaults()
	if err := checkInstance(model, x0, c); err != nil {
		return nil, err
	}
	if len(y0) != model.Classes() {
		return nil, fmt.Errorf("core: prediction length %d != model classes %d", len(y0), model.Classes())
	}
	return o.interpret(model, x0, y0, c)
}

func checkInstance(model plm.Model, x0 mat.Vec, c int) error {
	d := model.Dim()
	C := model.Classes()
	if len(x0) != d {
		return fmt.Errorf("core: instance length %d != model dim %d", len(x0), d)
	}
	if c < 0 || c >= C {
		return fmt.Errorf("core: class %d out of range [0,%d)", c, C)
	}
	if C < 2 {
		return fmt.Errorf("core: model has %d classes, need at least 2", C)
	}
	return nil
}

// interpret runs Algorithm 1 from a known anchor prediction y0. Each
// iteration issues its d+k sample-set probes as one batch (plm.PredictAll),
// so a batch-capable model sees one round trip per iteration.
// The design matrix depends only on the points, so it is filled and
// factored while the probes are in flight (DESIGN.md §17).
func (o *OpenAPI) interpret(model plm.Model, x0, y0 mat.Vec, c int) (*plm.Interpretation, error) {
	d := model.Dim()
	C := model.Classes()
	queries := 1 // the anchor probe, issued here or by the caller
	r := o.cfg.InitialEdge
	// One design buffer per interpretation, refilled every round: the rows
	// [1, x] of x0, the d square-system samples and the held-out ones. A
	// round's factor may live in it, and is dropped before the next refill.
	design := mat.NewDense(d+1+o.cfg.ExtraChecks, d+1)
	cps := make([]int, 0, C-1) // one right-hand-side column per pair, ascending c'
	for cp := 0; cp < C; cp++ {
		if cp != c {
			cps = append(cps, cp)
		}
	}
	bufs := newSolveBuffers(d+1, o.cfg.ExtraChecks, len(cps))

	for iter := 1; iter <= o.cfg.MaxIterations; iter++ {
		cube := sample.NewHypercube(x0, r)
		pts := cube.SampleN(o.cfg.RNG, d+o.cfg.ExtraChecks)
		// One batch round trip when the API supports it, per-point probes
		// otherwise; either way each point costs one query. A failed probe
		// ends the interpretation: no round can be checked without answers.
		ys, f, err := o.probeWhileFactoring(model, x0, pts, design)
		if err != nil {
			return nil, fmt.Errorf("core: round %d probe: %w", iter, err)
		}
		queries += len(pts)

		pairs, ok := o.solve(f, design, y0, ys, c, cps, bufs)
		if !ok {
			r /= o.cfg.ShrinkFactor
			continue
		}
		features := assembleDc(pairs, c, C, d)
		biases := make([]float64, C)
		diffs := make([]mat.Vec, C)
		for cp, pr := range pairs {
			if pr == nil {
				continue
			}
			diffs[cp] = pr.D
			biases[cp] = pr.B
		}
		return &plm.Interpretation{
			Class:      c,
			Features:   features,
			PairDiffs:  diffs,
			Biases:     biases,
			Samples:    pts,
			Queries:    queries,
			Iterations: iter,
			FinalEdge:  r,
			Exact:      true,
		}, nil
	}
	return nil, fmt.Errorf("%w (instance may lie on a region boundary)", ErrNoConvergence)
}

// probeWhileFactoring probes pts on the caller's goroutine while a second
// goroutine fills the round's design matrix from x0 and pts and factors
// it, and returns once both are done. The probe reads only pts, so the
// fill is off the round's serial path too. The factor goroutine is joined
// on every way out, a failed probe and a panicking model included, so none
// outlives the round.
func (o *OpenAPI) probeWhileFactoring(model plm.Model, x0 mat.Vec, pts []mat.Vec, design *mat.Dense) ([]mat.Vec, roundFactor, error) {
	var f roundFactor
	done := make(chan struct{})
	go func() {
		defer close(done)
		fillDesign(design, x0, pts)
		f = o.factor(design)
	}()
	defer func() { <-done }() // a panicking model unwinds through here
	ys, err := plm.PredictAll(model, pts)
	<-done
	return ys, f, err
}

// pairSolution is one recovered core-parameter tuple.
type pairSolution struct {
	D mat.Vec
	B float64
}

// roundFactor is the points-only half of a round: the LU factorization of
// the square design matrix, which needs no answer from the API.
type roundFactor struct {
	lu  *mat.LU
	err error // a numerically singular draw
}

// factor factors the square system of a round's design matrix (see
// fillDesign) in place: the matrix is a per-round throwaway, so Factor
// need not copy it. One factorization serves every class pair, turning the
// paper's O(C·(d+2)^3) inner loop into O((d+2)^3 + C·(d+2)^2).
func (o *OpenAPI) factor(design *mat.Dense) roundFactor {
	lu, err := mat.FactorInPlace(design.RowsView(design.Cols()))
	return roundFactor{lu: lu, err: err}
}

// solveBuffers is the solve step's working memory for one interpretation:
// the right-hand sides, solutions and check product, and the round's
// answer list. interpret allocates it once and every round refills it, so
// a rejected round allocates none of it.
type solveBuffers struct {
	eqY        []mat.Vec  // y0, then the round's answers
	rhs, wants *mat.Dense // square-system and held-out log-odds, a column per pair
	beta, pred *mat.Dense // the solutions and extras·β
	scale      []float64  // each pair's ‖rhs‖∞
}

// newSolveBuffers sizes the buffers for n unknowns, extras held-out
// equations and the given number of class pairs.
func newSolveBuffers(n, extras, pairs int) *solveBuffers {
	return &solveBuffers{
		eqY:   make([]mat.Vec, 0, n+extras),
		rhs:   mat.NewDense(n, pairs),
		wants: mat.NewDense(extras, pairs),
		beta:  mat.NewDense(n, pairs),
		pred:  mat.NewDense(extras, pairs),
		scale: make([]float64, pairs),
	}
}

// solve is the solve-and-check step: it recovers (D_{c,c'}, B_{c,c'}) for
// every c' in cps from the round's factor f and the answers, or reports
// inconsistency. design is the round's design matrix after factor ran; ys
// answers its rows after x0's: the first d form the square system with
// y0, the tail are held-out verification equations. bufs is sized for
// design and cps (newSolveBuffers).
func (o *OpenAPI) solve(f roundFactor, design *mat.Dense, y0 mat.Vec, ys []mat.Vec, c int, cps []int, bufs *solveBuffers) ([]*pairSolution, bool) {
	if f.err != nil {
		return nil, false
	}
	n := design.Cols() // d+1
	eqY := append(append(bufs.eqY[:0], y0), ys...)
	logOddsInto(bufs.rhs, eqY[:n], c, cps)
	logOddsInto(bufs.wants, eqY[n:], c, cps)
	if !o.checkSolutions(f.lu, design.RowsFrom(n), bufs) {
		return nil, false
	}
	out := make([]*pairSolution, len(cps)+1) // indexed by class
	collectPairs(bufs.beta, cps, out)
	return out, true
}

// checkSolutions solves the square system for every class pair at once —
// column j of b.rhs holds the j-th pair's log-odds for the square system,
// column j of b.wants those of the held-out equations — into b.beta, and
// verifies every held-out equation as one product: extras·β must reproduce
// b.wants within the tolerance of DESIGN.md §5.
func (o *OpenAPI) checkSolutions(lu *mat.LU, extras *mat.Dense, b *solveBuffers) bool {
	n := lu.N() // d+1
	if lu.SolveInto(b.rhs, b.beta) != nil {
		return false
	}
	scale := b.scale
	clear(scale)
	for i := 0; i < n; i++ {
		if b.beta.RawRow(i).HasNaN() {
			return false
		}
		for j, v := range b.rhs.RawRow(i) {
			if a := math.Abs(v); a > scale[j] {
				scale[j] = a
			}
		}
	}
	pred := extras.MulInto(b.beta, b.pred)
	for i := 0; i < extras.Rows(); i++ {
		for j, want := range b.wants.RawRow(i) {
			if math.Abs(pred.At(i, j)-want) > o.cfg.Tolerance*(1+math.Abs(want)+scale[j]) {
				return false
			}
		}
	}
	return true
}

// collectPairs stores column j of beta, pair cps[j]'s solution, in
// out[cps[j]]: B is its first entry, D the rest.
func collectPairs(beta *mat.Dense, cps []int, out []*pairSolution) {
	n := beta.Rows()
	for j, cp := range cps {
		sol := &pairSolution{D: make(mat.Vec, n-1), B: beta.At(0, j)}
		for i := range sol.D {
			sol.D[i] = beta.At(i+1, j)
		}
		out[cp] = sol
	}
}

// logOddsInto writes the right-hand sides ln(y_c / y_{c'}) of the
// equations whose predictions are ys (rows) for every pair c' in cps
// (columns) into m, which is len(ys)×len(cps) — paper Eq. 2.
func logOddsInto(m *mat.Dense, ys []mat.Vec, c int, cps []int) {
	for i, y := range ys {
		row := m.RawRow(i)
		for j, cp := range cps {
			row[j] = plm.LogOdds(y, c, cp)
		}
	}
}

// fillDesign writes the paper's coefficient matrix A into design: row 0 is
// [1, x0], row i+1 is [1, pts[i]].
func fillDesign(design *mat.Dense, x0 mat.Vec, pts []mat.Vec) {
	setRow := func(i int, x mat.Vec) {
		row := design.RawRow(i)
		row[0] = 1
		copy(row[1:], x)
	}
	setRow(0, x0)
	for i, p := range pts {
		setRow(i+1, p)
	}
}

// assembleDc averages the recovered pair differences into D_c (Eq. 1).
func assembleDc(pairs []*pairSolution, c, C, d int) mat.Vec {
	out := mat.NewVec(d)
	for cp, pr := range pairs {
		if cp == c || pr == nil {
			continue
		}
		out.AddInPlace(pr.D)
	}
	return out.ScaleInPlace(1 / float64(C-1))
}

// InterpretAll recovers D_c for every class from a single converged sample
// set by solving only C−1 systems against a reference class and differencing
// (W_c − W_{c'} = (W_c − W_ref) − (W_{c'} − W_ref)). It returns one
// Interpretation per class, all sharing the same query cost.
func (o *OpenAPI) InterpretAll(model plm.Model, x0 mat.Vec) ([]*plm.Interpretation, error) {
	o.cfg.setDefaults()
	d := model.Dim()
	C := model.Classes()
	if len(x0) != d {
		return nil, fmt.Errorf("core: instance length %d != model dim %d", len(x0), d)
	}
	if C < 2 {
		return nil, fmt.Errorf("core: model has %d classes, need at least 2", C)
	}
	// Reference class 0: recover β_c for pairs (c, 0), c = 1..C-1.
	ref, err := o.Interpret(model, x0, 0)
	if err != nil {
		return nil, err
	}
	// β_c relative to class 0 is -D_{0,c} (antisymmetry).
	rel := make([]mat.Vec, C) // rel[c] = W_c − W_0
	relB := make([]float64, C)
	rel[0] = mat.NewVec(d)
	for cp := 1; cp < C; cp++ {
		if ref.PairDiffs[cp] == nil {
			return nil, fmt.Errorf("core: missing pair solution for class %d", cp)
		}
		rel[cp] = ref.PairDiffs[cp].Scale(-1)
		relB[cp] = -ref.Biases[cp]
	}
	out := make([]*plm.Interpretation, C)
	for c := 0; c < C; c++ {
		diffs := make([]mat.Vec, C)
		biases := make([]float64, C)
		features := mat.NewVec(d)
		for cp := 0; cp < C; cp++ {
			if cp == c {
				continue
			}
			dcc := rel[c].Sub(rel[cp])
			diffs[cp] = dcc
			biases[cp] = relB[c] - relB[cp]
			features.AddInPlace(dcc)
		}
		features.ScaleInPlace(1 / float64(C-1))
		out[c] = &plm.Interpretation{
			Class:      c,
			Features:   features,
			PairDiffs:  diffs,
			Biases:     biases,
			Queries:    ref.Queries,
			Iterations: ref.Iterations,
			FinalEdge:  ref.FinalEdge,
			Exact:      true,
		}
	}
	return out, nil
}
