package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/sample"
)

// solveAllPerPairReference is the per-pair loop solveAll ran before the
// batched solve and check: one SolveVec per class pair, then each held-out
// equation evaluated as β₀ + D·x against the tolerance of DESIGN.md §5.
func solveAllPerPairReference(tol float64, x0, y0 mat.Vec, pts, ys []mat.Vec, c, C int) ([]*pairSolution, bool) {
	n := len(x0) + 1
	eqX := append([]mat.Vec{x0}, pts...)
	eqY := append([]mat.Vec{y0}, ys...)
	lu, err := mat.Factor(designMatrix(eqX[:n]))
	if err != nil {
		return nil, false
	}
	out := make([]*pairSolution, C)
	for cp := 0; cp < C; cp++ {
		if cp == c {
			continue
		}
		rhs := make(mat.Vec, len(eqY))
		for i, y := range eqY {
			rhs[i] = plm.LogOdds(y, c, cp)
		}
		beta, err := lu.SolveVec(rhs[:n])
		if err != nil || beta.HasNaN() {
			return nil, false
		}
		for i, extra := range eqX[n:] {
			pred := beta[0] + beta[1:].Dot(extra)
			want := rhs[n+i]
			if math.Abs(pred-want) > tol*(1+math.Abs(want)+rhs[:n].NormInf()) {
				return nil, false
			}
		}
		out[cp] = &pairSolution{D: beta[1:], B: beta[0]}
	}
	return out, true
}

// solveAll runs one round's factor and solve steps back to back on a fresh
// design buffer: the production halves, without the overlap.
func (o *OpenAPI) solveAll(x0, y0 mat.Vec, pts, ys []mat.Vec, c, C int) ([]*pairSolution, bool) {
	design := mat.NewDense(len(pts)+1, len(x0)+1)
	fillDesign(design, x0, pts)
	var cps []int
	for cp := 0; cp < C; cp++ {
		if cp != c {
			cps = append(cps, cp)
		}
	}
	return o.solve(o.factor(design), design, y0, ys, c, cps, newSolveBuffers(len(x0)+1, len(pts)-len(x0), len(cps)))
}

// designMatrix stacks rows [1, x_i...] — the paper's coefficient matrix A,
// freshly allocated.
func designMatrix(xs []mat.Vec) *mat.Dense {
	d := len(xs[0])
	m := mat.NewDense(len(xs), d+1)
	for i, x := range xs {
		row := m.RawRow(i)
		row[0] = 1
		copy(row[1:], x)
	}
	return m
}

// TestSolveBatchedMatchesPerPairLoop: the batched solve and held-out check
// make the same accept/reject decision as the per-pair loop on sample sets
// from hypercubes that straddle many regions down to ones inside x0's, and
// an accepted set's (D, B) are the loop's bit for bit (SolveInto is
// SolveVec column by column).
func TestSolveBatchedMatchesPerPairLoop(t *testing.T) {
	const d, C = 64, 10
	model := plnnModel(31, d, 32, 16, C)
	rng := rand.New(rand.NewSource(32))
	var accepted, rejected int
	for trial := 0; trial < 4; trial++ {
		x0 := randVec(rng, d)
		y0 := model.Predict(x0)
		c := y0.ArgMax()
		for r := 4.0; r > 0x1p-24; r /= 4 {
			pts := sample.NewHypercube(x0, r).SampleN(rng, d+2)
			ys := make([]mat.Vec, len(pts))
			for i, p := range pts {
				ys[i] = model.Predict(p)
			}
			want, wantOK := solveAllPerPairReference(1e-9, x0, y0, pts, ys, c, C)
			got, ok := New(Config{}).solveAll(x0, y0, pts, ys, c, C)
			if ok != wantOK {
				t.Fatalf("trial %d edge %g: accepted = %v, per-pair loop %v", trial, r, ok, wantOK)
			}
			for cp, w := range want { // nil for a rejected set
				if w == nil {
					continue
				}
				g := got[cp]
				if math.Float64bits(g.B) != math.Float64bits(w.B) {
					t.Fatalf("trial %d edge %g pair %d: B %v, loop %v", trial, r, cp, g.B, w.B)
				}
				for i := range w.D {
					if math.Float64bits(g.D[i]) != math.Float64bits(w.D[i]) {
						t.Fatalf("trial %d edge %g pair %d: D[%d] %v, loop %v", trial, r, cp, i, g.D[i], w.D[i])
					}
				}
			}
			if wantOK {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("%d sample sets accepted, %d rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("battery saw %d accepted and %d rejected sample sets; it needs both", accepted, rejected)
	}
}
