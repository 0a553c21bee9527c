package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m-by-n matrix with m >= n,
// in the classic LINPACK packed layout: the Householder vectors live on and
// below the diagonal of qr, the strict upper triangle of R above it, and the
// diagonal of R in rdiag. It is the least-squares engine behind the LIME
// baselines, whose ridge variant factors its own penalty-augmented design.
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

// fullRank reports whether every diagonal entry of R exceeds tol times
// the largest one in magnitude.
func (f *QR) fullRank(tol float64) bool {
	var maxAbs float64
	for _, v := range f.rdiag {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for _, v := range f.rdiag {
		if !(math.Abs(v) > tol*maxAbs) {
			return false
		}
	}
	return true
}

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
	if !f.fullRank(1e-13) {
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
