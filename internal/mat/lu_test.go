package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

func TestFactorRejectsNonSquare(t *testing.T) {
	_, err := Factor(NewDense(2, 3))
	if !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestFactorSingular(t *testing.T) {
	a := FromRows(Vec{1, 2}, Vec{2, 4}) // rank 1
	_, err := Factor(a)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// solveSquare factors a and solves a x = b.
func solveSquare(a *Dense, b Vec) (Vec, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows(Vec{2, 1}, Vec{1, 3})
	x, err := solveSquare(a, Vec{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if !x.EqualApprox(Vec{1, 3}, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := FromRows(Vec{0, 1}, Vec{1, 0})
	x, err := solveSquare(a, Vec{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !x.EqualApprox(Vec{7, 3}, 1e-14) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveVecRhsLengthMismatch(t *testing.T) {
	f, err := Factor(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveVec(Vec{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestDet(t *testing.T) {
	a := FromRows(Vec{1, 2}, Vec{3, 4})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det(); !almostEqual(got, -2, 1e-12) {
		t.Fatalf("Det = %v, want -2", got)
	}
	fi, err := Factor(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Det(); got != 1 {
		t.Fatalf("Det(I) = %v", got)
	}
}

// TestInverse: solving against the identity gives the inverse.
func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 6, 6)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := f.Solve(Identity(6))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).EqualApprox(Identity(6), 1e-9) {
		t.Fatal("A * A^{-1} != I")
	}
}

func TestSolveMultiRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 5, 5)
	b := randDense(rng, 5, 3)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(x).EqualApprox(b, 1e-9) {
		t.Fatal("A X != B")
	}
}

func TestMinPivotAndCondEst(t *testing.T) {
	// Well conditioned.
	f, err := Factor(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if f.MinPivot() != 1 {
		t.Fatalf("MinPivot(I) = %v", f.MinPivot())
	}
	if c := f.CondEst(Identity(4)); !almostEqual(c, 1, 1e-12) {
		t.Fatalf("CondEst(I) = %v", c)
	}
	// Badly conditioned.
	a := FromRows(Vec{1, 1}, Vec{1, 1 + 1e-12})
	fb, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := fb.CondEst(a); c < 1e10 {
		t.Fatalf("CondEst of near-singular = %v, want large", c)
	}
}

// Property: for random well-conditioned systems, solve then multiply
// recovers the right-hand side.
func TestPropertyLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(n8 uint8) bool {
		n := int(n8%12) + 2
		a := randDense(rng, n, n)
		// Diagonal boost keeps the sample well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make(Vec, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := solveSquare(a, b)
		if err != nil {
			return false
		}
		return got.EqualApprox(want, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: det(A) = 0 detection — scaling a row by 0 always errors.
func TestPropertyZeroRowSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(n8, r8 uint8) bool {
		n := int(n8%8) + 2
		a := randDense(rng, n, n)
		row := int(r8) % n
		for j := 0; j < n; j++ {
			a.Set(row, j, 0)
		}
		_, err := Factor(a)
		return errors.Is(err, ErrSingular)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the determinant changes sign under a row swap.
func TestPropertyDetRowSwapSign(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := func(n8 uint8) bool {
		n := int(n8%6) + 2
		a := randDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		fa, err := Factor(a)
		if err != nil {
			return false
		}
		b := a.Clone()
		r0, r1 := b.Row(0), b.Row(1)
		b.SetRow(0, r1)
		b.SetRow(1, r0)
		fb, err := Factor(b)
		if err != nil {
			return false
		}
		da, db := fa.Det(), fb.Det()
		return almostEqual(da, -db, 1e-8) || (math.Abs(da) < 1e-12 && math.Abs(db) < 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// factorReference is the textbook unblocked LU with partial pivoting — the
// loop Factor ran before it was blocked, each update one fused step
// fma(−l, u, a) — kept as the differential reference for the blocked
// path.
func factorReference(a *Dense) (*LU, error) {
	r, c := a.Dims()
	if r != c {
		return nil, ErrShape
	}
	n := r
	f := &LU{lu: a.Clone(), pivot: make([]int, n), sign: 1, n: n}
	for i := range f.pivot {
		f.pivot[i] = i
	}
	lu := f.lu.data
	for k := 0; k < n; k++ {
		p := k
		maxAbs := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rowP := lu[p*n : (p+1)*n]
			rowK := lu[k*n : (k+1)*n]
			for j := range rowK {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			f.pivot[p], f.pivot[k] = f.pivot[k], f.pivot[p]
			f.sign = -f.sign
		}
		inv := 1 / lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] * inv
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : (i+1)*n]
			rowK := lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] = math.FMA(-l, rowK[j], rowI[j])
			}
		}
	}
	return f, nil
}

// designMatrixAt returns OpenAPI's per-round coefficient matrix for order
// n: row 0 is [1, x0], rows 1..n−1 are [1, x0 + U(−edge/2, edge/2)^(n−1)].
func designMatrixAt(rng *rand.Rand, n int, edge float64) *Dense {
	a := NewDense(n, n)
	x0 := make([]float64, n-1)
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		row := a.RawRow(i)
		row[0] = 1
		for j, v := range x0 {
			row[j+1] = v
			if i > 0 {
				row[j+1] += edge * (rng.Float64() - 0.5)
			}
		}
	}
	return a
}

func diagDominant(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// luKinds are the differential battery's matrix kinds. "cross-panel"
// shuffles the rows of a diagonally dominant matrix, so almost every pivot
// row sits in a later panel than the column it pivots.
var luKinds = []struct {
	name string
	gen  func(rng *rand.Rand, n int) *Dense
}{
	{"random", func(rng *rand.Rand, n int) *Dense { return randDense(rng, n, n) }},
	{"diag-dominant", diagDominant},
	{"design-edge-1", func(rng *rand.Rand, n int) *Dense { return designMatrixAt(rng, n, 1) }},
	{"design-edge-2^-10", func(rng *rand.Rand, n int) *Dense { return designMatrixAt(rng, n, 0x1p-10) }},
	{"design-edge-2^-20", func(rng *rand.Rand, n int) *Dense { return designMatrixAt(rng, n, 0x1p-20) }},
	{"cross-panel", func(rng *rand.Rand, n int) *Dense {
		d := diagDominant(rng, n)
		out := NewDense(n, n)
		for i, p := range rng.Perm(n) {
			out.SetRow(i, d.RawRow(p))
		}
		return out
	}},
}

// luResidual returns max|PA − LU| / max|A|.
func luResidual(a *Dense, f *LU) float64 {
	n := f.n
	l, u := Identity(n), NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, f.lu.At(i, j))
			} else {
				u.Set(i, j, f.lu.At(i, j))
			}
		}
	}
	lu := l.Mul(u)
	var worst float64
	for i := 0; i < n; i++ {
		for j, v := range a.RawRow(f.pivot[i]) {
			worst = math.Max(worst, math.Abs(v-lu.At(i, j)))
		}
	}
	return worst / a.MaxAbs()
}

func luSizes() []int {
	sizes := []int{1, 2, 3, luBlock - 1, luBlock, luBlock + 1, 2*luBlock + 1, luCrossover - 1, luCrossover, 65, 257}
	// n = 785 costs half a minute under the race detector, mostly in the
	// scalar reference; the race run still factors it in the determinism
	// test, where the concurrency is.
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 785)
	}
	return sizes
}

// TestFactorMatchesReference is the differential battery: the blocked
// Factor against the unblocked reference over sizes straddling the panel
// width and the small-n crossover, on every matrix kind. Pivots must be
// identical (the kinds draw continuous values, so there are no ties), the
// backward error ‖PA − LU‖ must stay at round-off, and Det's sign and
// MinPivot must agree. Below the crossover Factor is the unblocked loop
// and must match it bit for bit.
func TestFactorMatchesReference(t *testing.T) {
	for _, kind := range luKinds {
		for _, n := range luSizes() {
			rng := rand.New(rand.NewSource(int64(1000*n + len(kind.name))))
			a := kind.gen(rng, n)
			want, err := factorReference(a)
			if err != nil {
				t.Fatalf("%s n=%d: reference: %v", kind.name, n, err)
			}
			got, err := Factor(a)
			if err != nil {
				t.Fatalf("%s n=%d: Factor: %v", kind.name, n, err)
			}
			for i := range want.pivot {
				if got.pivot[i] != want.pivot[i] {
					t.Fatalf("%s n=%d: pivot[%d] = %d, reference %d", kind.name, n, i, got.pivot[i], want.pivot[i])
				}
			}
			if got.sign != want.sign || math.Signbit(got.Det()) != math.Signbit(want.Det()) {
				t.Fatalf("%s n=%d: sign %d / Det %g, reference %d / %g", kind.name, n, got.sign, got.Det(), want.sign, want.Det())
			}
			if g, w := got.MinPivot(), want.MinPivot(); !almostEqual(g, w, 1e-6) {
				t.Fatalf("%s n=%d: MinPivot %g, reference %g", kind.name, n, g, w)
			}
			// Round-off for an order-n factorization: a small multiple of
			// n·ε, scaled by the growth max|U|/max|A| partial pivoting
			// allowed.
			growth := got.lu.MaxAbs() / a.MaxAbs()
			if res, bound := luResidual(a, got), 4*float64(n)*0x1p-52*math.Max(1, growth); res > bound {
				t.Fatalf("%s n=%d: ‖PA−LU‖/‖A‖ = %g > %g (reference %g)", kind.name, n, res, bound, luResidual(a, want))
			}
			if n < luCrossover {
				for i, v := range want.lu.data {
					if math.Float64bits(got.lu.data[i]) != math.Float64bits(v) {
						t.Fatalf("%s n=%d: unblocked path differs from reference at %d: %v vs %v", kind.name, n, i, got.lu.data[i], v)
					}
				}
			}
		}
	}
}

// TestFactorSingularAfterTrailingUpdate builds A = L·U with exactly
// representable factors — multipliers in {0, ±½} so partial pivoting never
// swaps, U integral with ±1/±2 pivots — and a zero U[j][j] in the second
// panel. Column j of A is nonzero; it only becomes zero below the diagonal
// after the first panel's trailing update, exactly, and Factor must report
// that column as singular.
func TestFactorSingularAfterTrailingUpdate(t *testing.T) {
	n := 257
	j := luBlock + 5
	if n < luCrossover || j >= n {
		t.Fatalf("n = %d does not exercise the blocked path with panel %d", n, luBlock)
	}
	rng := rand.New(rand.NewSource(41))
	l, u := Identity(n), NewDense(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < r; c++ {
			l.Set(r, c, []float64{0, 0.5, -0.5}[rng.Intn(3)])
		}
		u.Set(r, r, []float64{1, -1, 2, -2}[rng.Intn(4)])
		for c := r + 1; c < n; c++ {
			u.Set(r, c, float64(rng.Intn(9)-4))
		}
	}
	u.Set(j, j, 0)
	a := l.Mul(u)
	var colNorm float64
	for r := 0; r < n; r++ {
		colNorm += math.Abs(a.At(r, j))
	}
	if colNorm == 0 {
		t.Fatal("column j of A is already zero; the test needs it to vanish only after elimination")
	}
	for name, factor := range map[string]func(*Dense) (*LU, error){"Factor": Factor, "reference": factorReference} {
		_, err := factor(a)
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("%s: err = %v, want ErrSingular", name, err)
		}
	}
	_, err := Factor(a)
	if want := fmt.Sprintf("column %d", j); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %s", err, want)
	}
}

// TestFactorRankDeficientDesign: a feature held constant across every
// sample makes that column of the design matrix an exact multiple of the
// bias column, so the matrix is exactly singular — whichever panel the
// column lands in.
func TestFactorRankDeficientDesign(t *testing.T) {
	for _, n := range []int{65, 257} {
		for _, col := range []int{1, luBlock + 3, n - 1} {
			a := designMatrixAt(rand.New(rand.NewSource(int64(n+col))), n, 0x1p-10)
			for r := 0; r < n; r++ {
				a.Set(r, col, 0.3)
			}
			if _, err := Factor(a); !errors.Is(err, ErrSingular) {
				t.Fatalf("n=%d constant column %d: err = %v, want ErrSingular", n, col, err)
			}
		}
	}
}

// TestFactorDeterministicAcrossTiersAndWorkers: Factor's packed factors,
// pivots and sign are Float64bits-identical for every kernel tier and
// worker count — the trailing update's GEMM is, and everything else runs
// in a fixed order.
func TestFactorDeterministicAcrossTiersAndWorkers(t *testing.T) {
	sizes := []int{65, 257, 785}
	if testing.Short() {
		sizes = sizes[:2]
	}
	prevWorkers := SetWorkers(0)
	defer SetWorkers(prevWorkers)
	for _, n := range sizes {
		a := designMatrixAt(rand.New(rand.NewSource(int64(n))), n, 0x1p-10)
		var ref *LU
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			forEachTier(t, func(t *testing.T, tier KernelTier) {
				for _, w := range []int{1, 2, 4} {
					SetWorkers(w)
					f, err := Factor(a)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if ref == nil {
						ref = f
						continue
					}
					if f.sign != ref.sign {
						t.Fatalf("workers=%d: sign %d, want %d", w, f.sign, ref.sign)
					}
					for i := range f.pivot {
						if f.pivot[i] != ref.pivot[i] {
							t.Fatalf("workers=%d: pivot[%d] differs", w, i)
						}
					}
					for i, v := range f.lu.data {
						if math.Float64bits(v) != math.Float64bits(ref.lu.data[i]) {
							t.Fatalf("workers=%d: factor element %d = %v, want %v", w, i, v, ref.lu.data[i])
						}
					}
				}
			})
		})
	}
}

func TestFactorInPlaceMatchesFactor(t *testing.T) {
	a := designMatrixAt(rand.New(rand.NewSource(5)), 257, 0x1p-10)
	want, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	got, err := FactorInPlace(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.lu != b {
		t.Fatal("FactorInPlace did not keep the caller's matrix as its storage")
	}
	if !got.lu.EqualApprox(want.lu, 0) {
		t.Fatal("FactorInPlace differs from Factor")
	}
	if _, err := FactorInPlace(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square: err = %v, want ErrShape", err)
	}
}

// TestFactorAllocatesOnlyTheResult: with one worker a factorization
// allocates the returned LU — its header, pivots and the packed copy —
// and nothing else; panel and strip scratch come from the pools.
func TestFactorAllocatesOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer SetWorkers(SetWorkers(1))
	// A collection empties the scratch pools; hold it off so the count is
	// the warm steady state a round-after-round caller sees.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := designMatrixAt(rand.New(rand.NewSource(6)), 257, 0x1p-10)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Factor(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Factor allocated %v times per call, want 4 (LU, pivots, Dense header, data)", allocs)
	}
}

// solveReference is the textbook single right-hand-side solve — one
// serial dot product per row in each sweep, one fused step per term — that
// SolveVec ran before it became a one-column SolveInto.
func solveReference(f *LU, b Vec) Vec {
	n := f.n
	lu := f.lu.data
	x := make(Vec, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s = math.FMA(-lu[i*n+j], x[j], s)
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s = math.FMA(-lu[i*n+j], x[j], s)
		}
		x[i] = s / lu[i*n+i]
	}
	return x
}

// TestSolveIntoMatchesReference: the batched solve and SolveVec give,
// column by column, exactly the textbook solve's bits — whatever the
// number of columns riding along (9 exercises the four-wide groups and the
// single-column tail) — on design matrices and on random ones, whose
// U[0][0] is not 1.
func TestSolveIntoMatchesReference(t *testing.T) {
	for _, kind := range []int{0, 3} { // random, design-edge-2^-10
		for _, n := range []int{1, 5, 65, 257} {
			rng := rand.New(rand.NewSource(int64(n)))
			f, err := Factor(luKinds[kind].gen(rng, n))
			if err != nil {
				t.Fatal(err)
			}
			b := randDense(rng, n, 9)
			x := NewDense(n, 9)
			if err := f.SolveInto(b, x); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < b.Cols(); c++ {
				want := solveReference(f, b.Col(c))
				single, err := f.SolveVec(b.Col(c))
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range want {
					if math.Float64bits(x.At(i, c)) != math.Float64bits(v) || math.Float64bits(single[i]) != math.Float64bits(v) {
						t.Fatalf("%s n=%d column %d row %d: SolveInto %v, SolveVec %v, reference %v", luKinds[kind].name, n, c, i, x.At(i, c), single[i], v)
					}
				}
			}
		}
	}
}

func TestSolveIntoShapeErrors(t *testing.T) {
	f, err := Factor(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ b, x *Dense }{
		{NewDense(2, 1), NewDense(3, 1)},
		{NewDense(3, 2), NewDense(3, 1)},
		{NewDense(3, 1), NewDense(2, 1)},
	} {
		if err := f.SolveInto(tc.b, tc.x); !errors.Is(err, ErrShape) {
			t.Fatalf("%dx%d into %dx%d: err = %v, want ErrShape", tc.b.Rows(), tc.b.Cols(), tc.x.Rows(), tc.x.Cols(), err)
		}
	}
}

// TestSolveIntoColumnCountsAllTiers: for every right-hand-side count
// r = 1..13 — the 16-lane AVX-512 block's masked widths, the AVX2 4-column
// blocks with their Go tails, and the single column — each column of
// SolveInto is the textbook solve's bits, on every tier.
func TestSolveIntoColumnCountsAllTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var fs []*LU
	for _, n := range []int{1, 7, 66, 130} {
		f, err := Factor(designMatrixAt(rng, n, 0x1p-10))
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		for _, f := range fs {
			for r := 1; r <= 13; r++ {
				b := randDense(rng, f.n, r)
				x := NewDense(f.n, r)
				if err := f.SolveInto(b, x); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < r; c++ {
					for i, v := range solveReference(f, b.Col(c)) {
						if math.Float64bits(x.At(i, c)) != math.Float64bits(v) {
							t.Fatalf("n=%d r=%d column %d row %d: %v, want %v", f.n, r, c, i, x.At(i, c), v)
						}
					}
				}
			}
		}
	})
}
