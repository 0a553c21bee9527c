package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
//
// The zero value is an empty 0x0 matrix; use NewDense to allocate.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zeroed r-by-c matrix. It panics if r or c is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewDense negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds an r-by-c matrix backed by a copy of data, which must
// have length r*c and be laid out row-major.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: NewDenseFrom data length %d != %d*%d", len(data), r, c))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// FromRows builds a matrix whose rows are copies of the given vectors. All
// rows must have equal length. An empty argument list yields a 0x0 matrix.
func FromRows(rows ...Vec) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: FromRows ragged row %d: %d vs %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) RawRow(i int) Vec {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return Vec(m.data[i*m.cols : (i+1)*m.cols])
}

// Row returns a copy of the i-th row.
func (m *Dense) Row(i int) Vec {
	return m.RawRow(i).Clone()
}

// Col returns a copy of the j-th column.
func (m *Dense) Col(j int) Vec {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v Vec) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.RawRow(i), v)
}

// SetCol copies v into column j.
func (m *Dense) SetCol(j int, v Vec) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// RowsView returns the first r rows of m as a matrix sharing m's storage —
// no copy. Writes through the view write through to m. It exists so pooled
// per-batch scratch allocated at the full mini-batch size can serve a
// smaller remainder batch without reallocating.
func (m *Dense) RowsView(r int) *Dense {
	if r < 0 || r > m.rows {
		panic(fmt.Sprintf("mat: RowsView %d out of range %d", r, m.rows))
	}
	return &Dense{rows: r, cols: m.cols, data: m.data[:r*m.cols]}
}

// RowsFrom returns rows [i, Rows()) of m as a matrix sharing m's storage,
// the tail counterpart of RowsView.
func (m *Dense) RowsFrom(i int) *Dense {
	if i < 0 || i > m.rows {
		panic(fmt.Sprintf("mat: RowsFrom %d out of range %d", i, m.rows))
	}
	return &Dense{rows: m.rows - i, cols: m.cols, data: m.data[i*m.cols:]}
}

// Reuse makes m an r-by-c matrix and returns it. It keeps m's storage
// when that holds r*c elements and allocates exactly r*c otherwise. The
// elements are not zeroed: kept storage still holds what was written
// there before, so a caller must write every element before reading it.
// It is how recycled scratch serves batches of any size with no new
// allocation once it has grown to fit them.
func (m *Dense) Reuse(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: Reuse negative dimension %dx%d", r, c))
	}
	if cap(m.data) < r*c {
		m.data = make([]float64, r*c)
	}
	m.rows, m.cols, m.data = r, c, m.data[:r*c]
	return m
}

// Cap returns the number of elements m's storage holds, which Reuse can
// take without allocating.
func (m *Dense) Cap() int { return cap(m.data) }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// MulVec returns m * x. It is MulVecInto into a fresh vector, so single
// predictions run the same kernel whatever the code around them.
func (m *Dense) MulVec(x Vec) Vec {
	return m.MulVecInto(x, make(Vec, m.rows))
}

// MulVecT returns m^T * x without materializing the transpose.
func (m *Dense) MulVecT(x Vec) Vec {
	if len(x) != m.rows {
		panic(fmt.Sprintf("mat: MulVecT length %d != rows %d", len(x), m.rows))
	}
	out := make(Vec, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, a := range row {
			out[j] = math.FMA(a, xi, out[j])
		}
	}
	return out
}

// Mul returns m * b. The product runs on the blocked kernel in gemm.go:
// every output element is one ascending-k dot product with a single
// accumulator, so results match the naive triple loop bit for bit.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	return m.MulInto(b, out)
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameShape(b, "Add")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m - b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameShape(b, "Sub")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns a*m as a new matrix.
func (m *Dense) Scale(a float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= a
	}
	return out
}

func (m *Dense) sameShape(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// MaxAbs returns the largest absolute entry (the max norm).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm1 returns the entrywise L1 norm (sum of absolute entries).
func (m *Dense) Norm1() float64 {
	var s float64
	for _, v := range m.data {
		s += math.Abs(v)
	}
	return s
}

// FrobNorm returns the Frobenius norm.
func (m *Dense) FrobNorm() float64 {
	return Vec(m.data).Norm2()
}

// EqualApprox reports whether m and b agree entrywise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	return Vec(m.data).EqualApprox(Vec(b.data), tol)
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense(%dx%d, |max|=%.4g)", m.rows, m.cols, m.MaxAbs())
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
