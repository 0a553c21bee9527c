package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference triple loop: one ascending-k dot product per
// output element, one fused multiply-add per product — the steps the
// blocked kernel must reproduce exactly.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s = math.FMA(a.At(i, k), b.At(k, j), s)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func bitEqual(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: (%d,%d) = %v, want %v (bit-exact)", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestMulBitIdenticalToNaive sweeps shapes across every register-tile tail
// case (rows mod 4, cols mod 2, including zero-sized dimensions).
func TestMulBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, r := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9} {
		for _, k := range []int{0, 1, 3, 8, 17} {
			for _, c := range []int{0, 1, 2, 3, 5, 6} {
				a := randDense(rng, r, k)
				b := randDense(rng, k, c)
				bitEqual(t, a.Mul(b), naiveMul(a, b), "Mul")
			}
		}
	}
}

func TestMulIntoMatchesMulWithoutAllocatingDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randDense(rng, 13, 9)
	b := randDense(rng, 9, 11)
	dst := NewDense(13, 11)
	dst.RawRow(0)[0] = 42 // stale garbage must be overwritten
	got := a.MulInto(b, dst)
	if got != dst {
		t.Fatal("MulInto did not return dst")
	}
	bitEqual(t, dst, a.Mul(b), "MulInto")
}

func TestMulBTMatchesMulOfTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][3]int{{6, 5, 4}, {1, 1, 1}, {9, 17, 3}, {4, 8, 2}} {
		a := randDense(rng, shape[0], shape[1])
		b := randDense(rng, shape[2], shape[1]) // b is n x k; MulBT computes a·bᵀ
		bitEqual(t, a.MulBT(b), a.Mul(b.T()), "MulBT")
	}
}

func TestMulVecIntoBitIdenticalToMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randDense(rng, 7, 12)
	x := make(Vec, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make(Vec, 7)
	m.MulVecInto(x, dst)
	want := mulVecLoop(m, x)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// TestMulATBitIdenticalToSequentialAccumulation pins the contract batched
// backprop relies on: mᵀ·b equals accumulating rank-1 row outer products
// row by row in ascending order, one fused multiply-add per product — the
// arithmetic a per-sample gradient loop performs — bit for bit.
func TestMulATBitIdenticalToSequentialAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range [][3]int{{1, 1, 1}, {5, 3, 4}, {8, 4, 2}, {17, 9, 6}, {3, 1, 7}, {0, 2, 3}} {
		k, r, c := shape[0], shape[1], shape[2]
		m := randDense(rng, k, r)
		b := randDense(rng, k, c)
		want := NewDense(r, c)
		for row := 0; row < k; row++ { // ascending-row accumulation
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					want.Set(i, j, math.FMA(m.At(row, i), b.At(row, j), want.At(i, j)))
				}
			}
		}
		bitEqual(t, m.MulAT(b), want, "MulAT")
		bitEqual(t, m.MulAT(b), m.T().Mul(b), "MulAT vs T().Mul")
	}
}

func TestMulATWorkerCountDoesNotChangeBits(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Big enough to clear the parallel cutoff.
	m := randDense(rng, 130, 129)
	b := randDense(rng, 130, 67)

	prev := SetWorkers(1)
	serial := m.MulAT(b)
	SetWorkers(4)
	parallel := m.MulAT(b)
	SetWorkers(prev)

	bitEqual(t, parallel, serial, "MulAT workers=4 vs workers=1")
}

func TestMulATIntoShapeAndAliasPanics(t *testing.T) {
	m := NewDense(4, 3)
	b := NewDense(4, 5)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"k mismatch", func() { NewDense(3, 3).MulATInto(b, NewDense(3, 5)) }},
		{"dst shape", func() { m.MulATInto(b, NewDense(3, 4)) }},
		{"aliased dst", func() {
			sq := NewDense(4, 4)
			sq.MulATInto(NewDense(4, 4), sq)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestRowsViewSharesStorage(t *testing.T) {
	m := NewDenseFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	v := m.RowsView(2)
	if v.Rows() != 2 || v.Cols() != 2 || v.At(1, 1) != 4 {
		t.Fatalf("view = %v", v)
	}
	v.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("view write did not reach the backing matrix")
	}
	for _, r := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RowsView(%d): expected panic", r)
				}
			}()
			m.RowsView(r)
		}()
	}
}

func TestMulWorkerCountDoesNotChangeBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Big enough to clear the parallel cutoff.
	a := randDense(rng, 129, 130)
	b := randDense(rng, 130, 37)

	prev := SetWorkers(1)
	serial := a.Mul(b)
	SetWorkers(4)
	parallel := a.Mul(b)
	parallelBT := a.MulBT(b.T())
	SetWorkers(prev)

	bitEqual(t, parallel, serial, "workers=4 vs workers=1")
	bitEqual(t, parallelBT, serial, "MulBT workers=4 vs workers=1")
}

func TestMulIntoRejectsAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 4, 4)
	b := randDense(rng, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on aliased dst")
		}
	}()
	a.MulInto(b, a)
}

func TestMulIntoShapePanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 4)
	for _, dst := range []*Dense{NewDense(2, 3), NewDense(3, 4), NewDense(0, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for dst %dx%d", dst.Rows(), dst.Cols())
				}
			}()
			a.MulInto(b, dst)
		}()
	}
}

// TestFanOutRule pins the fan-out decisions the serving chunks and the LU
// rely on (DESIGN.md §14): nothing below parallelMACCutoff or below two
// minSpanRows-row spans fans out, and above both a product takes as many
// goroutines as its rows fill, up to SetWorkers.
func TestFanOutRule(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	for _, c := range []struct{ rows, macs, want int }{
		{33, 33 * 784 * 256, 1},   // a d = 784 chunk of a 66-row batch
		{33, 33 * 64 * 256, 1},    // a d = 64 probe-round chunk
		{63, 63 * 784 * 256, 1},   // one row short of two spans
		{64, 64 * 784 * 256, 2},   // a batch-784 chunk
		{64, 64 * 100 * 10, 1},    // its read-out layer
		{197, 197 * 784 * 256, 2}, // an interpret-784 chunk
		{1000, parallelMACCutoff - 1, 1},
		{1000, parallelMACCutoff, 2},
	} {
		if got := fanOut(c.rows, c.macs); got != c.want {
			t.Errorf("fanOut(%d, %d) = %d, want %d", c.rows, c.macs, got, c.want)
		}
	}
	SetWorkers(8)
	if got := fanOut(100, 100*784*256); got != 3 {
		t.Errorf("fanOut(100, …) at 8 workers = %d, want 3 (100/minSpanRows)", got)
	}
	SetWorkers(1)
	if got := fanOut(1000, 1<<30); got != 1 {
		t.Errorf("fanOut at 1 worker = %d, want 1", got)
	}
}

// TestDenseReuse pins Reuse's storage contract: it keeps storage that
// holds r*c elements, stale contents and all, and allocates otherwise.
func TestDenseReuse(t *testing.T) {
	m := NewDense(4, 5)
	m.Set(0, 0, 7)
	first := &m.data[0]
	m.Reuse(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 || m.Cap() != 20 || &m.data[0] != first {
		t.Fatalf("Reuse(2, 3) = %dx%d cap %d, moved=%v; want 2x3 over the same 20 floats", r, c, m.Cap(), &m.data[0] != first)
	}
	if m.At(0, 0) != 7 {
		t.Fatal("Reuse zeroed kept storage")
	}
	m.Reuse(5, 5)
	if r, c := m.Dims(); r != 5 || c != 5 || m.Cap() != 25 {
		t.Fatalf("Reuse(5, 5) = %dx%d cap %d, want 5x5 cap 25", r, c, m.Cap())
	}
	var z Dense
	if z.Reuse(0, 3); z.Cap() != 0 {
		t.Fatalf("Reuse(0, 3) of a zero Dense allocated %d", z.Cap())
	}
}
