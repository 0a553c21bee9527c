package mat

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At = %v", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value = %v", got)
	}
}

func TestDenseBounds(t *testing.T) {
	m := NewDense(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.RawRow(5) },
		func() { m.Col(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected bounds panic")
				}
			}()
			fn()
		}()
	}
}

func TestDenseFromRowsAndCols(t *testing.T) {
	m := FromRows(Vec{1, 2}, Vec{3, 4}, Vec{5, 6})
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("Dims = %dx%d", r, c)
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("Col = %v", got)
	}
	if got := m.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row = %v", got)
	}
	empty := FromRows()
	if r, c := empty.Dims(); r != 0 || c != 0 {
		t.Fatalf("empty FromRows = %dx%d", r, c)
	}
}

func TestDenseSetRowCol(t *testing.T) {
	m := NewDense(2, 2)
	m.SetRow(0, Vec{1, 2})
	m.SetCol(1, Vec{9, 8})
	if m.At(0, 0) != 1 || m.At(0, 1) != 9 || m.At(1, 1) != 8 {
		t.Fatalf("SetRow/SetCol got %v", m)
	}
}

func TestDenseMulVec(t *testing.T) {
	m := FromRows(Vec{1, 2}, Vec{3, 4})
	got := m.MulVec(Vec{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
	gotT := m.MulVecT(Vec{5, 6})
	if gotT[0] != 23 || gotT[1] != 34 {
		t.Fatalf("MulVecT = %v", gotT)
	}
}

// mulVecLoop is the scalar loop MulVec ran before it became MulVecInto:
// one ascending-j dot product per output row, one fused multiply-add per
// product.
func mulVecLoop(m *Dense, x Vec) Vec {
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for j, a := range m.data[i*m.cols : (i+1)*m.cols] {
			s = math.FMA(a, x[j], s)
		}
		out[i] = s
	}
	return out
}

// TestDenseMulVecMatchesScalarLoop: MulVec is bit-identical to the scalar
// loop on random shapes from 1×1 to 100×784, and on empty ones, on every
// kernel tier.
func TestDenseMulVecMatchesScalarLoop(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier KernelTier) {
		rng := rand.New(rand.NewSource(11))
		shapes := [][2]int{{0, 5}, {3, 0}, {1, 1}, {1, 784}, {100, 1}, {100, 784}, {10, 64}, {7, 13}}
		for i := 0; i < 20; i++ {
			shapes = append(shapes, [2]int{1 + rng.Intn(100), 1 + rng.Intn(784)})
		}
		for _, sh := range shapes {
			m := randDense(rng, sh[0], sh[1])
			x := randDense(rng, 1, sh[1]).data
			got, want := m.MulVec(x), mulVecLoop(m, x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%dx%d row %d: MulVec %v, scalar loop %v", sh[0], sh[1], i, got[i], want[i])
				}
			}
		}
	})
}

func TestDenseMul(t *testing.T) {
	a := FromRows(Vec{1, 2}, Vec{3, 4})
	b := FromRows(Vec{0, 1}, Vec{1, 0})
	got := a.Mul(b)
	want := FromRows(Vec{2, 1}, Vec{4, 3})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestDenseIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 4, 4)
	if !a.Mul(Identity(4)).EqualApprox(a, 1e-15) {
		t.Fatal("A*I != A")
	}
	if !Identity(4).Mul(a).EqualApprox(a, 1e-15) {
		t.Fatal("I*A != A")
	}
}

func TestDenseTranspose(t *testing.T) {
	a := FromRows(Vec{1, 2, 3}, Vec{4, 5, 6})
	at := a.T()
	if r, c := at.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %dx%d", r, c)
	}
	if at.At(2, 1) != 6 || at.At(0, 0) != 1 {
		t.Fatalf("T values wrong: %v", at)
	}
	if !a.T().T().EqualApprox(a, 0) {
		t.Fatal("double transpose != original")
	}
}

func TestDenseAddSubScale(t *testing.T) {
	a := FromRows(Vec{1, 2}, Vec{3, 4})
	b := FromRows(Vec{4, 3}, Vec{2, 1})
	if got := a.Add(b); got.At(0, 0) != 5 || got.At(1, 1) != 5 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got.At(0, 0) != -3 || got.At(1, 1) != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got.At(1, 0) != 6 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestDenseNorms(t *testing.T) {
	a := FromRows(Vec{3, -4}, Vec{0, 0})
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
	if got := a.Norm1(); got != 7 {
		t.Fatalf("Norm1 = %v", got)
	}
	if got := a.FrobNorm(); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("FrobNorm = %v", got)
	}
}

func TestDenseString(t *testing.T) {
	small := FromRows(Vec{1, 2})
	if s := small.String(); !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Fatalf("small String = %q", s)
	}
	big := NewDense(100, 100)
	if s := big.String(); !strings.Contains(s, "100x100") {
		t.Fatalf("big String = %q", s)
	}
}

func TestDenseCloneIndependence(t *testing.T) {
	a := FromRows(Vec{1, 2})
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRawRowAliases(t *testing.T) {
	a := FromRows(Vec{1, 2})
	a.RawRow(0)[1] = 10
	if a.At(0, 1) != 10 {
		t.Fatal("RawRow must alias the matrix")
	}
}

// Property: (AB)^T = B^T A^T for random shapes.
func TestPropertyTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(a8, b8, c8 uint8) bool {
		m, k, n := int(a8%5)+1, int(b8%5)+1, int(c8%5)+1
		a := randDense(rng, m, k)
		b := randDense(rng, k, n)
		left := a.Mul(b).T()
		right := b.T().Mul(a.T())
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVecT(x) == T().MulVec(x).
func TestPropertyMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(a8, b8 uint8) bool {
		m, n := int(a8%6)+1, int(b8%6)+1
		a := randDense(rng, m, n)
		x := make(Vec, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return a.MulVecT(x).EqualApprox(a.T().MulVec(x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
