package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m-by-n matrix with m >= n,
// in the classic LINPACK packed layout: the Householder vectors live on and
// below the diagonal of qr, the strict upper triangle of R above it, and the
// diagonal of R in rdiag. It is the least-squares engine behind the LIME
// baselines and the ridge solver.
type QR struct {
	qr    *Dense
	rdiag Vec
	m, n  int
}

// FactorQR computes the QR factorization of a (rows >= cols required).
func FactorQR(a *Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: FactorQR needs rows >= cols, got %dx%d: %w", m, n, ErrShape)
	}
	f := &QR{qr: a.Clone(), rdiag: make(Vec, n), m: m, n: n}
	d := f.qr.data
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, d[i*n+k])
		}
		if nrm != 0 {
			if d[k*n+k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				d[i*n+k] /= nrm
			}
			d[k*n+k] += 1
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s = math.FMA(d[i*n+k], d[i*n+j], s)
				}
				s = -s / d[k*n+k]
				for i := k; i < m; i++ {
					d[i*n+j] = math.FMA(s, d[i*n+k], d[i*n+j])
				}
			}
		}
		f.rdiag[k] = -nrm
	}
	return f, nil
}

// RDiag returns a copy of the diagonal of R.
func (f *QR) RDiag() Vec { return f.rdiag.Clone() }

// Rank returns the numerical rank of R: the count of diagonal entries larger
// than tol times the largest diagonal magnitude.
func (f *QR) Rank(tol float64) int {
	var maxAbs float64
	for _, v := range f.rdiag {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	rank := 0
	for _, v := range f.rdiag {
		if math.Abs(v) > tol*maxAbs {
			rank++
		}
	}
	return rank
}

// IsFullRank reports whether R has no (near-)zero diagonal entries.
func (f *QR) IsFullRank(tol float64) bool { return f.Rank(tol) == f.n }

// applyQT overwrites y (length m) with Q^T y.
func (f *QR) applyQT(y Vec) {
	m, n := f.m, f.n
	d := f.qr.data
	for k := 0; k < n; k++ {
		if d[k*n+k] == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s = math.FMA(d[i*n+k], y[i], s)
		}
		s = -s / d[k*n+k]
		for i := k; i < m; i++ {
			y[i] = math.FMA(s, d[i*n+k], y[i])
		}
	}
}

// SolveVec returns the least-squares solution x minimizing ||A x - b||_2.
// It returns ErrSingular when R is numerically rank deficient.
func (f *QR) SolveVec(b Vec) (Vec, error) {
	if len(b) != f.m {
		return nil, fmt.Errorf("mat: QR SolveVec rhs length %d != %d: %w", len(b), f.m, ErrShape)
	}
	if !f.IsFullRank(1e-13) {
		return nil, fmt.Errorf("mat: rank-deficient least squares: %w", ErrSingular)
	}
	n := f.n
	d := f.qr.data
	y := b.Clone()
	f.applyQT(y)
	x := make(Vec, n)
	copy(x, y[:n])
	for k := n - 1; k >= 0; k-- {
		x[k] /= f.rdiag[k]
		for i := 0; i < k; i++ {
			x[i] = math.FMA(-x[k], d[i*n+k], x[i])
		}
	}
	return x, nil
}

// ResidualNorm returns ||A x - b||_2 for the least-squares solution against
// b, read off the tail of Q^T b without forming A x.
func (f *QR) ResidualNorm(b Vec) (float64, error) {
	if len(b) != f.m {
		return 0, fmt.Errorf("mat: ResidualNorm rhs length %d != %d: %w", len(b), f.m, ErrShape)
	}
	y := b.Clone()
	f.applyQT(y)
	return y[f.n:].Norm2(), nil
}

// LeastSquares solves min ||A x - b||_2 via QR.
func LeastSquares(a *Dense, b Vec) (Vec, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// RidgeSolve solves the ridge regression problem
// min ||A x - b||^2 + lambda ||x||^2 via the augmented least-squares system
// [A; sqrt(lambda) I] x = [b; 0]. With lambda = 0 it degrades to plain least
// squares. skipCols lists column indices exempt from the penalty (use it to
// leave intercepts unregularized).
func RidgeSolve(a *Dense, b Vec, lambda float64, skipCols ...int) (Vec, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("mat: RidgeSolve negative lambda %g", lambda)
	}
	m, n := a.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("mat: RidgeSolve rhs length %d != %d: %w", len(b), m, ErrShape)
	}
	if lambda == 0 {
		return LeastSquares(a, b)
	}
	skip := make(map[int]bool, len(skipCols))
	for _, c := range skipCols {
		skip[c] = true
	}
	aug := NewDense(m+n, n)
	for i := 0; i < m; i++ {
		copy(aug.RawRow(i), a.RawRow(i))
	}
	s := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		if skip[j] {
			continue
		}
		aug.Set(m+j, j, s)
	}
	bb := make(Vec, m+n)
	copy(bb, b)
	return LeastSquares(aug, bb)
}
