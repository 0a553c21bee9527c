package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// qrSolve factors a and returns its least-squares solution against b, the
// two calls LIME makes.
func qrSolve(a *Dense, b Vec) (Vec, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// residualNorm returns ||A x - b||_2.
func residualNorm(a *Dense, x, b Vec) float64 {
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	return r.Norm2()
}

func TestQRRejectsWideMatrix(t *testing.T) {
	_, err := FactorQR(NewDense(2, 3))
	if !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRSquareSolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randDense(rng, 6, 6)
	for i := 0; i < 6; i++ {
		a.Set(i, i, a.At(i, i)+6)
	}
	b := make(Vec, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xlu, err := solveSquare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	xqr, err := qrSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !xlu.EqualApprox(xqr, 1e-8) {
		t.Fatalf("LU %v vs QR %v", xlu, xqr)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through noisy-free points: exact recovery expected.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewDense(len(xs), 2)
	b := make(Vec, len(xs))
	for i, x := range xs {
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	coef, err := qrSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !coef.EqualApprox(Vec{2, 1}, 1e-10) {
		t.Fatalf("coef = %v, want [2 1]", coef)
	}
	if res := residualNorm(a, coef, b); res > 1e-10 {
		t.Fatalf("residual of consistent system = %v", res)
	}
}

func TestQRResidualOfInconsistentSystem(t *testing.T) {
	// x must satisfy x=0 and x=1 simultaneously: the least-squares x is 1/2
	// and its residual sqrt(1/2).
	a := FromRows(Vec{1}, Vec{1})
	b := Vec{0, 1}
	x, err := qrSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 0.5, 1e-12) {
		t.Fatalf("x = %v, want 0.5", x[0])
	}
	if res := residualNorm(a, x, b); !almostEqual(res, math.Sqrt(0.5), 1e-12) {
		t.Fatalf("residual = %v, want %v", res, math.Sqrt(0.5))
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := FromRows(Vec{1, 2}, Vec{2, 4}, Vec{3, 6})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveVec(Vec{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRZeroMatrixRank(t *testing.T) {
	f, err := FactorQR(NewDense(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveVec(Vec{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: err = %v, want ErrSingular", err)
	}
}

// Property: the QR least-squares solution of a consistent square system
// reproduces the constructed solution.
func TestPropertyQRSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(n8, extra8 uint8) bool {
		n := int(n8%8) + 1
		extra := int(extra8 % 8)
		m := n + extra
		a := randDense(rng, m, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make(Vec, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := qrSolve(a, b)
		if err != nil {
			return false
		}
		return got.EqualApprox(want, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the least-squares residual never exceeds ||b||, the residual
// of x = 0.
func TestPropertyResidualBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(n8, extra8 uint8) bool {
		n := int(n8%6) + 1
		m := n + int(extra8%6) + 1
		a := randDense(rng, m, n)
		b := make(Vec, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := qrSolve(a, b)
		if err != nil {
			return false
		}
		return residualNorm(a, x, b) <= b.Norm2()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
