package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/mat"
	"repro/internal/plm"
	"repro/internal/sample"
)

// core.OpenAPI's defaults, which every interpret op runs with.
const (
	extraChecks = 2   // held-out consistency probes per round
	initialEdge = 1.0 // first hypercube edge
	shrink      = 2.0 // edge divisor after an inconsistent round
)

// round is one probe round as the client decorator saw it: the first
// sampled point (to confirm the replay) and the model's answers.
type round struct {
	first mat.Vec
	ys    []mat.Vec
}

// shadow times core's linear algebra and sampling, which have no seams the
// benchmark could wrap. After each traced interpret op it replays the op's
// rounds: it re-draws each round's probe set from the op's sampler seed,
// confirms it is the set the client sent, and times sample.SampleN,
// mat.Factor and the C−1 LU.SolveVec calls on exactly those inputs. FLOP
// rates follow from the shapes (2n³/3 per factor), not from counters.
type shadow struct {
	rounds                int
	sample, factor, solve time.Duration
	factorFlops           float64
	mismatches            int
}

func (sh *shadow) replay(w workload, in *inputs, i int, rounds []round, out outcome) {
	if len(rounds) < 2 || out.err != nil {
		return
	}
	x0, c := in.xs[i], in.classes[i]
	y0 := rounds[0].ys[0] // the anchor probe
	rng := rand.New(rand.NewSource(in.seeds[i]))
	r := initialEdge
	for _, rd := range rounds[1:] {
		t0 := time.Now()
		pts := sample.NewHypercube(x0, r).SampleN(rng, w.d+extraChecks)
		t1 := time.Now()
		if !sameBits(pts[0], rd.first) {
			sh.mismatches++
			return
		}
		a := mat.NewDense(w.d+1, w.d+1)
		for k, x := range append([]mat.Vec{x0}, pts[:w.d]...) {
			row := a.RawRow(k)
			row[0] = 1
			copy(row[1:], x)
		}
		t2 := time.Now()
		lu, err := mat.Factor(a)
		t3 := time.Now()
		ys := append([]mat.Vec{y0}, rd.ys[:w.d]...)
		rhs := make(mat.Vec, w.d+1)
		var solve time.Duration
		for cp := 0; cp < len(y0) && err == nil; cp++ {
			// A singular design matrix ends core's round the same way:
			// nothing to solve, shrink and re-sample.
			if cp == c {
				continue
			}
			for k, y := range ys {
				rhs[k] = plm.LogOdds(y, c, cp)
			}
			t4 := time.Now()
			lu.SolveVec(rhs)
			solve += time.Since(t4)
		}
		n := float64(w.d + 1)
		sh.rounds++
		sh.sample += t1.Sub(t0)
		sh.factor += t3.Sub(t2)
		sh.solve += solve
		sh.factorFlops += 2 * n * n * n / 3
		r /= shrink
	}
	if len(rounds)-1 != out.iters {
		sh.mismatches++
	}
}

func (sh *shadow) err() error {
	if sh.mismatches > 0 {
		return fmt.Errorf("shadow replay diverged from the recorded probe rounds %d time(s)", sh.mismatches)
	}
	return nil
}

func sameBits(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
