package mat

import (
	"fmt"
	"math"
)

// This file holds the LU factorization with partial pivoting, PA = LU, and
// the triangular solves OpenAPI runs against it. Algorithm 1 factors one
// (d+1)² design matrix per resample-and-halve round and solves its C−1
// class pairs against that one factor, so at the paper's image
// dimensionality (n = 785) the factor is the interpreter's main cost.
//
// Factor is a right-looking blocked LU (the LAPACK getrf shape). For each
// panel of luBlock columns:
//
//  1. panel: rows k0..n of the panel are gathered column-major into pooled
//     scratch and factored unblocked with partial pivoting (getf2), so the
//     pivot search and the column updates walk contiguous memory; each
//     pivot's row swap is applied to the rest of the row (laswp);
//  2. triangular solve: U12 = L11⁻¹·A12 on the panel's block row;
//  3. trailing update: A22 −= L21·U12 through gemmBT, the tiered packed
//     GEMM kernels, in row strips, so no scratch buffer is larger than
//     O(n·luBlock).
//
// Steps 2 and 3 split their columns or rows across SetWorkers goroutines.
// Below luCrossover the whole matrix is one panel, which is the textbook
// unblocked loop.
//
// Determinism: every element of the panel and the triangular solve
// subtracts its products one at a time in a fixed order, each as one fused
// multiply-add, d = fma(−l, u, d) (the level-2 kernels of gemm_level2.go
// put elements in vector lanes, never split a chain), each trailing
// element is one ascending gemmBT chain of fused steps (bit-identical
// across tiers and worker counts) and one subtraction, so Factor's output
// bits depend on neither the kernel tier nor SetWorkers. They are not
// bit-identical to the unblocked loop: a trailing element subtracts each
// panel's sum of products at once, where the unblocked loop subtracts the
// products one at a time. DESIGN.md §16 gives the
// measurements and the tolerance argument.

// LU holds an LU factorization with partial pivoting of a square matrix A,
// PA = LU. Factor once, then solve against many right-hand sides — this is
// the hot path of the OpenAPI interpreter, where the same coefficient matrix
// serves every class pair.
type LU struct {
	lu    *Dense // packed L (unit lower, below diagonal) and U (upper)
	pivot []int  // row i of the factorization came from row pivot[i] of A
	sign  int    // parity of the permutation, for Det
	n     int
}

// luBlock is the panel width nb. On a 2-vCPU AVX-512 Xeon, design-shaped
// n = 785 factors took a median 27.0, 26.3, 25.8, 27.2 and 28.5 ms at
// nb = 32, 40, 48, 64 and 80 (the unblocked loop: 174 ms): narrower panels
// give the GEMM too short a k, wider ones move more of the O(n²·nb) panel
// and triangular-solve work onto the scalar path.
const luBlock = 48

// luCrossover is the order below which Factor runs unblocked. On the same
// machine the blocked path took 49.4, 58.9 and 73.3 µs at n = 49, 53 and 57
// against 45.9, 56.4 and 71.8 µs unblocked, tied at n = 61 and 65 and won
// from n = 69 (111 against 118 µs).
const luCrossover = 64

// luStrip is the row count of one trailing-update strip, whose L21 rows are
// packed once for gemmBT (two 16-row AVX-512 tiles); 16, 32 and 64
// measured within 1% of each other at n = 785.
const luStrip = 32

// Factor computes the LU factorization of the square matrix a with partial
// pivoting, leaving a untouched. It returns ErrSingular when a pivot
// underflows to zero; callers that can resample (as OpenAPI does) should
// treat that as "try new points".
func Factor(a *Dense) (*LU, error) {
	if err := checkSquare(a); err != nil {
		return nil, err
	}
	return factor(a.Clone())
}

// FactorInPlace is Factor without the copy: the packed factors overwrite a,
// and the returned LU keeps a as its storage, so the caller must not use a
// afterwards. On error a holds partial factors. It suits a throwaway
// matrix such as OpenAPI's per-round design matrix.
func FactorInPlace(a *Dense) (*LU, error) {
	if err := checkSquare(a); err != nil {
		return nil, err
	}
	return factor(a)
}

func checkSquare(a *Dense) error {
	if r, c := a.Dims(); r != c {
		return fmt.Errorf("mat: Factor needs square matrix, got %dx%d: %w", r, c, ErrShape)
	}
	return nil
}

// factor runs the right-looking blocked LU on a in place (see the file
// comment): per luBlock-column panel, factor the panel, solve its block
// row, then update the trailing matrix through the GEMM kernels.
func factor(a *Dense) (*LU, error) {
	n := a.rows
	f := &LU{lu: a, pivot: make([]int, n), sign: 1, n: n}
	for i := range f.pivot {
		f.pivot[i] = i
	}
	nb := luBlock
	if n < luCrossover {
		nb = n
	}
	for k0 := 0; k0 < n; k0 += nb {
		kb := min(nb, n-k0)
		if err := f.factorPanel(k0, kb); err != nil {
			return nil, err
		}
		if k0+kb < n {
			f.updateTrailing(k0, kb)
		}
	}
	return f, nil
}

// factorPanel factors columns [k0, k0+kb) of rows [k0, n) unblocked with
// partial pivoting (LAPACK getf2). The panel is gathered column-major into
// pooled scratch, so the pivot search and the column updates walk
// contiguous memory; each pivot's row swap is applied to the rest of the
// two rows in place (laswp). The rank-1 updates are applied four steps at a
// time (subScaled4) but every element still receives them one at a time in
// step order, so the panel's bits are those of the textbook unblocked loop
// — and a single panel spanning the whole matrix is that loop.
func (f *LU) factorPanel(k0, kb int) error {
	n := f.n
	lu := f.lu.data
	m := n - k0
	sp := getScratch(kb * m)
	defer putScratch(sp)
	p := *sp
	for i := 0; i < m; i++ {
		row := lu[(k0+i)*n+k0 : (k0+i)*n+k0+kb]
		for c, v := range row {
			p[c*m+i] = v
		}
	}
	for j0 := 0; j0 < kb; j0 += 4 {
		j1 := min(j0+4, kb)
		for j := j0; j < j1; j++ {
			cj := p[j*m : (j+1)*m]
			piv, maxAbs := j, math.Abs(cj[j])
			for i := j + 1; i < m; i++ {
				if a := math.Abs(cj[i]); a > maxAbs {
					piv, maxAbs = i, a
				}
			}
			if maxAbs == 0 {
				return fmt.Errorf("mat: zero pivot at column %d: %w", k0+j, ErrSingular)
			}
			if piv != j {
				for c := 0; c < kb; c++ {
					pc := p[c*m : (c+1)*m]
					pc[j], pc[piv] = pc[piv], pc[j]
				}
				rowJ := lu[(k0+j)*n : (k0+j+1)*n]
				rowP := lu[(k0+piv)*n : (k0+piv+1)*n]
				for c := 0; c < k0; c++ {
					rowJ[c], rowP[c] = rowP[c], rowJ[c]
				}
				for c := k0 + kb; c < n; c++ {
					rowJ[c], rowP[c] = rowP[c], rowJ[c]
				}
				f.pivot[k0+j], f.pivot[k0+piv] = f.pivot[k0+piv], f.pivot[k0+j]
				f.sign = -f.sign
			}
			inv := 1 / cj[j]
			l := cj[j+1:]
			for i := range l {
				l[i] *= inv
			}
			for c := j + 1; c < j1; c++ {
				pc := p[c*m : (c+1)*m]
				subScaled(pc[j+1:], l, pc[j])
			}
		}
		// Columns right of the four-step block: finish their block rows (a
		// small unit-lower solve), then apply the block's updates to the
		// rows below in one pass.
		for c := j1; c < kb; c++ {
			pc := p[c*m : (c+1)*m]
			for j := j0; j < j1; j++ {
				u := pc[j]
				for s := j + 1; s < j1; s++ {
					pc[s] = math.FMA(-p[j*m+s], u, pc[s])
				}
			}
			below := pc[j1:]
			if j1-j0 == 4 {
				subScaled4(below,
					p[j0*m+j1:(j0+1)*m], p[(j0+1)*m+j1:(j0+2)*m],
					p[(j0+2)*m+j1:(j0+3)*m], p[(j0+3)*m+j1:(j0+4)*m],
					pc[j0], pc[j0+1], pc[j0+2], pc[j0+3])
				continue
			}
			for j := j0; j < j1; j++ {
				subScaled(below, p[j*m+j1:(j+1)*m], pc[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		row := lu[(k0+i)*n+k0 : (k0+i)*n+k0+kb]
		for c := range row {
			row[c] = p[c*m+i]
		}
	}
	return nil
}

// updateTrailing finishes the panel's block row and updates the matrix
// below and right of it, each step split across SetWorkers goroutines:
//
//   - U12 = L11⁻¹·A12, one trailing column range per goroutine (columns
//     are independent), packed transposed into U12ᵀ as it goes;
//   - A22 −= L21·U12 on gemmBT — the tiered packed kernels — one
//     luStrip-row strip at a time: the strip's L21 rows are packed and
//     gemmBT subtracts each finished product from its A22 element in
//     place, so no product temporary is ever materialised.
//
// Each product element is one ascending chain over the panel, bit-identical
// on every tier and for every worker count, and everything else is per
// element in a fixed order, so the result is too.
func (f *LU) updateTrailing(k0, kb int) {
	mt := f.n - k0 - kb
	u12t := getScratchDense(mt, kb)
	// The fan-outs are spelled out rather than shared through a helper so
	// the serial path builds no closure and allocates nothing.
	if w := fanOut(mt, kb*kb*mt/2); w > 1 {
		parallelRows(mt, w, func(lo, hi int) { f.solveBlockRow(k0, kb, u12t, lo, hi) })
	} else {
		f.solveBlockRow(k0, kb, u12t, 0, mt)
	}
	if w := fanOut(mt, mt*mt*kb); w > 1 {
		parallelRows(mt, w, func(lo, hi int) { f.updateStrips(k0, kb, u12t, lo, hi) })
	} else {
		f.updateStrips(k0, kb, u12t, 0, mt)
	}
	putScratchDense(u12t)
}

// solveBlockRow overwrites trailing columns [lo, hi) of the panel's block
// row with U12 = L11⁻¹·A12 (forward substitution with the unit lower
// triangle; each element subtracts its terms in ascending order) and packs
// them transposed into rows [lo, hi) of u12t.
func (f *LU) solveBlockRow(k0, kb int, u12t *Dense, lo, hi int) {
	n := f.n
	lu := f.lu.data
	c0 := k0 + kb
	row := func(t int) []float64 { return lu[(k0+t)*n+c0+lo : (k0+t)*n+c0+hi] }
	for i := 1; i < kb; i++ {
		dst, li := row(i), lu[(k0+i)*n+k0:(k0+i)*n+c0]
		t := 0
		for ; t+4 <= i; t += 4 {
			subScaled4(dst, row(t), row(t+1), row(t+2), row(t+3), li[t], li[t+1], li[t+2], li[t+3])
		}
		for ; t < i; t++ {
			subScaled(dst, row(t), li[t])
		}
	}
	for t := 0; t < kb; t++ {
		for j, v := range row(t) {
			u12t.data[(lo+j)*kb+t] = v
		}
	}
}

// updateStrips computes A22 −= L21·U12 for trailing rows [lo, hi), one
// luStrip-row strip at a time: the strip's L21 rows are packed and gemmBT
// subtracts each finished product chain from its A22 element in place.
func (f *LU) updateStrips(k0, kb int, u12t *Dense, lo, hi int) {
	n := f.n
	lu := f.lu.data
	c0 := k0 + kb
	l21 := getScratchDense(luStrip, kb)
	for s := lo; s < hi; s += luStrip {
		e := min(s+luStrip, hi)
		for i := s; i < e; i++ {
			copy(l21.data[(i-s)*kb:(i-s+1)*kb], lu[(c0+i)*n+k0:(c0+i)*n+c0])
		}
		a := lhs{data: l21.data[:(e-s)*kb], k: kb}
		// A22's strip rows as a view of stride n (see gemmBT).
		d := Dense{rows: e - s, cols: n, data: lu[(c0+s)*n+c0:]}
		gemmBT(&d, a, u12t, 0, e-s, nil, true)
	}
	putScratchDense(l21)
}

// N returns the order of the factored matrix.
func (f *LU) N() int { return f.n }

// SolveVec solves A x = b for a single right-hand side; see SolveInto.
func (f *LU) SolveVec(b Vec) (Vec, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("mat: SolveVec rhs length %d != %d: %w", len(b), f.n, ErrShape)
	}
	x := make(Vec, f.n)
	if err := f.SolveInto(&Dense{rows: f.n, cols: 1, data: b}, &Dense{rows: f.n, cols: 1, data: x}); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A X = B for every column of b at once into x, which must
// be N()×b.Cols() and must not alias b, so the C−1 class pairs OpenAPI
// solves per round share one pass over the factors. The solve runs in
// place in x's row-major layout: each row of L and U is read once for all
// columns, and the columns' chains run side by side (in vector lanes on
// the AVX tiers; see subDotCols). Every element subtracts its terms in
// ascending order, so a column's result does not depend on how many
// columns ride along.
func (f *LU) SolveInto(b, x *Dense) error {
	n := f.n
	if b.rows != n || x.rows != n || x.cols != b.cols {
		return fmt.Errorf("mat: SolveInto %dx%d rhs into %dx%d for order %d: %w", b.rows, b.cols, x.rows, x.cols, n, ErrShape)
	}
	checkNoAlias("SolveInto", x, b)
	r := b.cols
	xd := x.data
	for i, p := range f.pivot {
		copy(xd[i*r:(i+1)*r], b.data[p*r:(p+1)*r])
	}
	lu := f.lu.data
	// Forward substitution with the unit lower triangle.
	for i := 1; i < n; i++ {
		subDotCols(xd[i*r:(i+1)*r], lu[i*n:i*n+i], xd, r)
	}
	// Back substitution with the upper triangle.
	for i := n - 1; i >= 0; i-- {
		d := lu[i*n+i]
		if d == 0 {
			return fmt.Errorf("mat: zero diagonal at %d: %w", i, ErrSingular)
		}
		xi := xd[i*r : (i+1)*r]
		subDotCols(xi, lu[i*n+i+1:(i+1)*n], xd[(i+1)*r:], r)
		for c := range xi {
			xi[c] /= d
		}
	}
	return nil
}

// Solve solves A X = B into a new matrix; see SolveInto.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	x := NewDense(f.n, b.Cols())
	if err := f.SolveInto(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	det := float64(f.sign)
	for i := 0; i < f.n; i++ {
		det *= f.lu.data[i*f.n+i]
	}
	return det
}

// MinPivot returns the smallest absolute diagonal entry of U — a cheap
// proxy for how close to singular the matrix is.
func (f *LU) MinPivot() float64 {
	m := math.Inf(1)
	for i := 0; i < f.n; i++ {
		if a := math.Abs(f.lu.data[i*f.n+i]); a < m {
			m = a
		}
	}
	return m
}

// CondEst returns a crude lower-bound estimate of the infinity-norm condition
// number: ||A||_inf * max|1/u_ii|. Good enough to flag the near-singular
// systems OpenAPI must resample.
func (f *LU) CondEst(a *Dense) float64 {
	var normA float64
	for i := 0; i < a.Rows(); i++ {
		s := a.RawRow(i).Norm1()
		if s > normA {
			normA = s
		}
	}
	mp := f.MinPivot()
	if mp == 0 {
		return math.Inf(1)
	}
	return normA / mp
}
