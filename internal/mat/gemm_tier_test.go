package mat

import (
	"math"
	"math/rand"
	"testing"
)

// forEachTier runs fn once per tier the running CPU can execute, with the
// GEMM dispatch pinned to that tier, and restores the previous tier when
// done. TierScalar always runs first, so every wider kernel is compared
// against results the scalar reference just produced on the same machine.
func forEachTier(t *testing.T, fn func(t *testing.T, tier KernelTier)) {
	t.Helper()
	prev := ActiveKernelTier()
	defer SetKernelTier(prev)
	for _, tier := range AvailableTiers() {
		if _, err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%s): %v", tier, err)
		}
		t.Run(tier.String(), func(t *testing.T) { fn(t, tier) })
	}
}

func TestParseKernelTierRoundTrip(t *testing.T) {
	for _, tier := range []KernelTier{TierScalar, TierNEON, TierAVX2, TierAVX512} {
		got, err := ParseKernelTier(tier.String())
		if err != nil || got != tier {
			t.Fatalf("ParseKernelTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if got, err := ParseKernelTier("  AVX2\n"); err != nil || got != TierAVX2 {
		t.Fatalf("ParseKernelTier with case/space = %v, %v", got, err)
	}
	if _, err := ParseKernelTier("sse9"); err == nil {
		t.Fatal("ParseKernelTier accepted an unknown tier")
	}
}

func TestAvailableTiersAscendingScalarFirst(t *testing.T) {
	tiers := AvailableTiers()
	if len(tiers) == 0 || tiers[0] != TierScalar {
		t.Fatalf("AvailableTiers = %v, want TierScalar first", tiers)
	}
	for i := 1; i < len(tiers); i++ {
		if tiers[i] <= tiers[i-1] {
			t.Fatalf("AvailableTiers not strictly ascending: %v", tiers)
		}
	}
}

func TestSetKernelTierRejectsUnavailable(t *testing.T) {
	avail := make(map[KernelTier]bool)
	for _, tier := range AvailableTiers() {
		avail[tier] = true
	}
	before := ActiveKernelTier()
	for _, tier := range []KernelTier{TierScalar, TierNEON, TierAVX2, TierAVX512} {
		if avail[tier] {
			continue
		}
		if _, err := SetKernelTier(tier); err == nil {
			t.Fatalf("SetKernelTier(%s) succeeded on a CPU without it", tier)
		}
		if got := ActiveKernelTier(); got != before {
			t.Fatalf("failed SetKernelTier changed active tier to %s", got)
		}
	}
}

// TestMulBTTierParity pins the ladder's core promise: every tier produces
// the same bits as the scalar reference for shapes covering every block and
// remainder case (rows mod 8 and mod 4, cols mod 4 and mod 2, k = 0).
func TestMulBTTierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type cse struct {
		a, b *Dense
		want *Dense
	}
	var cases []cse
	for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 13, 16, 17} {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 11} {
			for _, k := range []int{0, 1, 2, 7, 16, 17} {
				a := randDense(rng, m, k)
				b := randDense(rng, n, k)
				cases = append(cases, cse{a, b, naiveMul(a, b.T())})
			}
		}
	}
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, c := range cases {
			dst := NewDense(c.a.Rows(), c.b.Rows())
			c.a.MulBTInto(c.b, dst)
			bitEqual(t, dst, c.want, "MulBTInto@"+tier.String())
		}
	})
}

// TestMulATIntoTierParity covers the transpose-A entry point (batched
// backprop's dW GEMM), which reaches the packed kernels through double
// transposed packing, on every tier.
func TestMulATIntoTierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shapes := [][3]int{{1, 1, 1}, {4, 5, 3}, {8, 9, 4}, {17, 6, 11}, {3, 16, 2}}
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, s := range shapes {
			k, r, c := s[0], s[1], s[2]
			m := randDense(rng, k, r)
			b := randDense(rng, k, c)
			bitEqual(t, m.MulAT(b), naiveMul(m.T(), b), "MulAT@"+tier.String())
		}
	})
}

// TestMulVecIntoTierParity covers the matrix-vector entry point, which now
// routes through gemmBT as a one-row tile, on every tier; the one-row shape
// exercises the single-row remainder path of each kernel.
func TestMulVecIntoTierParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, rows := range []int{1, 3, 4, 7, 8, 9, 17} {
			for _, cols := range []int{0, 1, 2, 5, 16, 17} {
				m := randDense(rng, rows, cols)
				x := make(Vec, cols)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				dst := make(Vec, rows)
				m.MulVecInto(x, dst)
				for i := 0; i < rows; i++ {
					var want float64
					for k := 0; k < cols; k++ {
						want = math.FMA(m.At(i, k), x[k], want)
					}
					if dst[i] != want {
						t.Fatalf("MulVecInto@%s %dx%d: [%d] = %v, want %v", tier, rows, cols, i, dst[i], want)
					}
				}
			}
		}
	})
}

// gemmReference is the triple loop gemmBT must reproduce on every tier:
// each element one ascending-k chain, every product added by one fused
// multiply-add (math.FMA: a single rounding per step). In sub mode it
// subtracts the finished chain from dst's element, once.
func gemmReference(dst, a, b *Dense, sub bool) {
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.rows; j++ {
			var s float64
			for t := 0; t < a.cols; t++ {
				s = math.FMA(a.data[i*a.cols+t], b.data[j*b.cols+t], s)
			}
			if sub {
				dst.data[i*dst.cols+j] -= s
			} else {
				dst.data[i*dst.cols+j] = s
			}
		}
	}
}

// TestGemmBTStoreModesAllTiers sweeps gemmBT itself over every row
// remainder of the 16-, 8-, 4- and 1-row rungs (m = 0..40), every column
// tail of the 4-wide kernels (n = 0..9) and k ∈ {0, 1, 3, 48, 785} — the
// LU's panel width and the interpreter's design width — in all three store
// modes: plain, fused epilogue, and the LU's subtract into a strided view
// (columns past b.rows must stay untouched). Bits are compared with
// Float64bits against the reference on every tier the CPU has.
func TestGemmBTStoreModesAllTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ks := []int{0, 1, 3, 48, 785}
	if testing.Short() || raceEnabled {
		ks = ks[:4]
	}
	type cse struct {
		a, b, init  *Dense // init: the strided subtract target's start
		plain, subd *Dense
		epi         *Epilogue
		epiWant     *Dense
	}
	const pad = 3 // extra columns of the strided view
	var cases []cse
	for _, k := range ks {
		for m := 0; m <= 40; m++ {
			for n := 0; n <= 9; n++ {
				a, b := randDense(rng, m, k), randDense(rng, n, k)
				c := cse{a: a, b: b, init: randDense(rng, m, n+pad)}
				c.plain = NewDense(m, n)
				gemmReference(c.plain, a, b, false)
				c.subd = c.init.Clone()
				gemmReference(c.subd, a, b, true)
				if m > 0 && n > 0 {
					c.epi = epilogueVariants(m, n, rng)[3]
					c.epiWant = c.plain.Clone()
					applyEpilogueNaive(c.epiWant, &Epilogue{Bias: c.epi.Bias, Act: c.epi.Act, Leak: c.epi.Leak})
				}
				cases = append(cases, c)
			}
		}
	}
	same := func(t *testing.T, got, want *Dense, label string, c cse) {
		t.Helper()
		for i, v := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(v) {
				t.Fatalf("%s m=%d n=%d k=%d: element %d = %v, want %v", label, c.a.rows, c.b.rows, c.a.cols, i, got.data[i], v)
			}
		}
	}
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, c := range cases {
			m, n := c.a.rows, c.b.rows
			got := randDense(rng, m, n) // stale contents must be overwritten
			gemmBT(got, c.a.lhs(), c.b, 0, m, nil, false)
			same(t, got, c.plain, "plain", c)

			// The LU's view: rows of stride n+pad whose data stops right
			// after the last row's n-th column.
			view := c.init.Clone()
			end := 0
			if m > 0 {
				end = (m-1)*(n+pad) + n
			}
			gemmBT(&Dense{rows: m, cols: n + pad, data: view.data[:end]}, c.a.lhs(), c.b, 0, m, nil, true)
			same(t, view, c.subd, "subtract", c)

			if c.epi != nil {
				got := NewDense(m, n)
				epi := &Epilogue{Bias: c.epi.Bias, Act: c.epi.Act, Leak: c.epi.Leak}
				gemmBT(got, c.a.lhs(), c.b, 0, m, epi, false)
				same(t, got, c.epiWant, "epilogue", c)
			}
		}
	})
}
