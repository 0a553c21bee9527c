package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// applyEpilogueNaive is the unfused reference: whole-matrix bias sweep, then
// whole-matrix mask capture, then whole-matrix activation — the separate
// passes the nn package ran before fusion. Every operation is per-element,
// so sweeping the whole matrix per pass instead of per block must give the
// fused path's bits exactly.
func applyEpilogueNaive(dst *Dense, epi *Epilogue) {
	if epi == nil {
		return
	}
	if epi.Bias != nil {
		for i := 0; i < dst.Rows(); i++ {
			dst.RawRow(i).AddInPlace(epi.Bias)
		}
	}
	if epi.Mask != nil {
		for i := 0; i < dst.Rows(); i++ {
			for j, v := range dst.RawRow(i) {
				epi.Mask[i*dst.Cols()+j] = v > 0
			}
		}
	}
	leak := epi.Leak
	if epi.Act == ActReLU {
		leak = 0
	}
	if epi.Act != ActIdentity {
		for i := 0; i < dst.Rows(); i++ {
			row := dst.RawRow(i)
			for j, v := range row {
				if v <= 0 {
					row[j] = leak * v
				}
			}
		}
	}
}

// epilogueVariants returns the epilogue configurations the fuzz sweeps: the
// shapes nn actually uses (bias-only read-out, masked ReLU / leaky hidden
// layers) plus a bias-less activation to decouple the two features.
func epilogueVariants(rows, cols int, rng *rand.Rand) []*Epilogue {
	bias := make(Vec, cols)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	return []*Epilogue{
		nil,
		{Bias: bias},
		{Bias: bias, Act: ActReLU, Mask: make([]bool, rows*cols)},
		{Bias: bias, Act: ActLeakyReLU, Leak: 0.01, Mask: make([]bool, rows*cols)},
		{Act: ActLeakyReLU, Leak: 0.25},
	}
}

// TestMulBTIntoEpilogueShapeFuzzAllTiers is the fused parity battery: every
// (m, n, k) in [0, 17]³ — covering each kernel's 8-row, 4-row, 4-col and
// scalar remainder combinations plus empty dimensions — times each epilogue
// variant, on every tier the CPU can run, compared bit-for-bit
// (Float64bits-equal via bitEqual) against naive GEMM plus the unfused
// reference sweeps.
func TestMulBTIntoEpilogueShapeFuzzAllTiers(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		rng := rand.New(rand.NewSource(31))
		for m := 0; m <= 17; m++ {
			for n := 0; n <= 17; n++ {
				for k := 0; k <= 17; k++ {
					a := randDense(rng, m, k)
					b := randDense(rng, n, k)
					want := naiveMul(a, b.T())
					for vi, epi := range epilogueVariants(m, n, rng) {
						wantCopy := want.Clone()
						var wantMask []bool
						refEpi := epi
						if epi != nil {
							cp := *epi
							if epi.Mask != nil {
								wantMask = make([]bool, len(epi.Mask))
								cp.Mask = wantMask
							}
							refEpi = &cp
						}
						applyEpilogueNaive(wantCopy, refEpi)

						dst := NewDense(m, n)
						a.MulBTIntoEpilogue(b, dst, epi)
						if t.Failed() {
							return
						}
						bitEqual(t, dst, wantCopy, "fused epilogue")
						// The same product with the left operand given as
						// its rows, into a dst of stale values.
						rowsDst := randDense(rng, m, n)
						MulRowsBTIntoEpilogue(rowsOf(a), b, rowsDst, epi)
						bitEqual(t, rowsDst, wantCopy, "fused epilogue, rows operand")
						if wantMask != nil {
							for i := range wantMask {
								if epi.Mask[i] != wantMask[i] {
									t.Fatalf("tier %s shape (%d,%d,%d) variant %d: mask[%d] = %v, want %v",
										tier, m, n, k, vi, i, epi.Mask[i], wantMask[i])
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestMulBTIntoEpilogueParallelMatchesSerial pins that row-parallel
// execution applies the epilogue to exactly its own row span: a shape above
// the parallel flop cutoff produces the same bits and the same mask at one
// worker and at four.
func TestMulBTIntoEpilogueParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randDense(rng, 70, 64)
	b := randDense(rng, 70, 64)
	bias := make(Vec, 70)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	run := func(workers int) (*Dense, []bool) {
		prev := SetWorkers(workers)
		defer SetWorkers(prev)
		epi := &Epilogue{Bias: bias, Act: ActLeakyReLU, Leak: 0.01, Mask: make([]bool, 70*70)}
		dst := NewDense(70, 70)
		a.MulBTIntoEpilogue(b, dst, epi)
		return dst, epi.Mask
	}
	serial, serialMask := run(1)
	par, parMask := run(4)
	bitEqual(t, par, serial, "epilogue workers=4 vs workers=1")
	for i := range serialMask {
		if parMask[i] != serialMask[i] {
			t.Fatalf("mask[%d] differs between worker counts", i)
		}
	}
}

// rowsOf returns m's rows as separately allocated vectors, the shape of a
// batch handed to MulRowsBTIntoEpilogue.
func rowsOf(m *Dense) []Vec {
	xs := make([]Vec, m.rows)
	for i := range xs {
		xs[i] = m.Row(i)
	}
	return xs
}

// TestMulRowsBTIntoEpilogueMatchesStacked pins the rows operand against
// the stacked matrix on a shape that fans out, at one worker and at four:
// same bits, same mask, on every tier.
func TestMulRowsBTIntoEpilogueMatchesStacked(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		rng := rand.New(rand.NewSource(35))
		a := randDense(rng, 97, 64)
		b := randDense(rng, 70, 64)
		bias := make(Vec, 70)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		want := NewDense(97, 70)
		wantEpi := &Epilogue{Bias: bias, Act: ActReLU, Mask: make([]bool, 97*70)}
		a.MulBTIntoEpilogue(b, want, wantEpi)
		for _, w := range []int{1, 4} {
			prev := SetWorkers(w)
			got := randDense(rng, 97, 70)
			epi := &Epilogue{Bias: bias, Act: ActReLU, Mask: make([]bool, 97*70)}
			MulRowsBTIntoEpilogue(rowsOf(a), b, got, epi)
			SetWorkers(prev)
			bitEqual(t, got, want, fmt.Sprintf("rows operand, workers=%d", w))
			for i := range epi.Mask {
				if epi.Mask[i] != wantEpi.Mask[i] {
					t.Fatalf("workers=%d: mask[%d] differs from the stacked operand's", w, i)
				}
			}
		}
	})
}

// TestMulRowsBTIntoEpiloguePanicsOnShortRow pins that a row of the wrong
// length is refused before any work.
func TestMulRowsBTIntoEpiloguePanicsOnShortRow(t *testing.T) {
	b := NewDense(3, 4)
	dst := NewDense(2, 3)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic for a short row")
		}
	}()
	MulRowsBTIntoEpilogue([]Vec{make(Vec, 4), make(Vec, 3)}, b, dst, nil)
}

// TestMulBTIntoEpilogueNilMatchesMulBTInto pins that a nil epilogue is
// exactly the plain entry point.
func TestMulBTIntoEpilogueNilMatchesMulBTInto(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randDense(rng, 9, 13)
	b := randDense(rng, 7, 13)
	want := NewDense(9, 7)
	a.MulBTInto(b, want)
	got := NewDense(9, 7)
	a.MulBTIntoEpilogue(b, got, nil)
	bitEqual(t, got, want, "nil epilogue")
}

// TestMulBTIntoEpilogueSteadyStateAllocFree asserts the fused fast path
// allocates nothing once scratch pools are warm: the property the batched
// training loop's alloc budget rests on.
func TestMulBTIntoEpilogueSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(34))
	a := randDense(rng, 12, 9)
	b := randDense(rng, 11, 9)
	dst := NewDense(12, 11)
	epi := &Epilogue{Bias: make(Vec, 11), Act: ActLeakyReLU, Leak: 0.01, Mask: make([]bool, 12*11)}
	a.MulBTIntoEpilogue(b, dst, epi) // warm the scratch pool
	if avg := testing.AllocsPerRun(200, func() {
		a.MulBTIntoEpilogue(b, dst, epi)
	}); avg != 0 {
		t.Fatalf("fused MulBTIntoEpilogue allocates %.1f/op in steady state, want 0", avg)
	}
}

func TestEpilogueCheckPanics(t *testing.T) {
	a := NewDense(4, 3)
	b := NewDense(5, 3)
	dst := NewDense(4, 5)
	for _, tc := range []struct {
		name string
		epi  *Epilogue
	}{
		{"bias length", &Epilogue{Bias: make(Vec, 4)}},
		{"mask length", &Epilogue{Mask: make([]bool, 19)}},
		{"unknown activation", &Epilogue{Act: ActKind(9)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			a.MulBTIntoEpilogue(b, dst, tc.epi)
		}()
	}
}

// TestEpilogueMaskCapturesPostBiasPreActivation pins the capture point: the
// mask must see the biased pre-activation (openbox's region key), not the
// raw GEMM output and not the post-activation value.
func TestEpilogueMaskCapturesPostBiasPreActivation(t *testing.T) {
	a := NewDenseFrom(1, 1, []float64{1})
	b := NewDenseFrom(2, 1, []float64{-1, 2}) // raw products: -1, 2
	epi := &Epilogue{Bias: Vec{3, -5}, Act: ActReLU, Mask: make([]bool, 2)}
	dst := NewDense(1, 2)
	a.MulBTIntoEpilogue(b, dst, epi)
	// Biased: -1+3 = 2 > 0 (raw was negative); 2-5 = -3 <= 0 (raw positive).
	if !epi.Mask[0] || epi.Mask[1] {
		t.Fatalf("mask = %v, want [true false]", epi.Mask)
	}
	if dst.At(0, 0) != 2 || dst.At(0, 1) != 0 {
		t.Fatalf("dst = [%v %v], want [2 0]", dst.At(0, 0), dst.At(0, 1))
	}
}

// TestEpilogueActivationSelectMatchesBranch: the activation's bit select
// stores exactly what the branchy `if v <= 0 { v = leak*v }` stores, on the
// values where a select could differ from a branch — NaN payloads of both
// signs, signed zeros, subnormals, infinities — for plain ReLU and a leak.
func TestEpilogueActivationSelectMatchesBranch(t *testing.T) {
	vals := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
		math.Float64frombits(0xfff8000000000002), // negative quiet NaN
		math.Float64frombits(0x7ff0000000000003), // signalling NaN
		math.Float64frombits(0xfff0000000000004), // negative signalling NaN
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.Inf(1), math.Inf(-1), 1, -1, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, act := range []ActKind{ActReLU, ActLeakyReLU} {
		for _, leak := range []float64{0, 0.01} {
			dst := NewDenseFrom(1, len(vals), append([]float64(nil), vals...))
			applyEpilogueRows(dst, &Epilogue{Act: act, Leak: leak}, 0, 1)
			l := leak
			if act == ActReLU {
				l = 0
			}
			for j, v := range vals {
				want := v
				if v <= 0 {
					want = l * v
				}
				if got := dst.At(0, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v leak %v: %#016x -> %#016x, branch gives %#016x",
						act, leak, math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}
