// Package mat provides the dense linear-algebra substrate used by the
// thermal models and the cooling-system optimizer: dense matrices and
// vectors, Cholesky and LU factorizations, triangular solves, inverses,
// determinants and positive-definiteness tests.
//
// Everything is implemented from scratch on float64 and kept deliberately
// simple: the compact thermal networks solved in this repository have at
// most a few thousand nodes, so O(n^3) direct methods are perfectly
// adequate (and are exactly what the paper prescribes for its
// positive-definiteness checks). Larger grid models use package sparse.
package mat

import (
	"fmt"
	"math"
	"strings"

	"tecopt/internal/num"
)

// Dense is a row-major dense matrix.
//
// The zero value is an empty matrix; use NewDense or one of the
// constructors to create a usable instance.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a rows x cols matrix of zeros.
// It panics if either dimension is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of row slices.
// All rows must have equal length.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged input: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diagonal returns a square matrix with d along its main diagonal.
func Diagonal(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// IsSquare reports whether the matrix is square.
func (m *Dense) IsSquare() bool { return m.rows == m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns row i as a slice of the matrix's own storage, so
// writes through it change the matrix. It lets O(n^3) kernels walk
// contiguous rows without a bounds check per element.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Scale multiplies every element by s in place and returns the receiver.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// SubMat returns m - b as a new matrix.
func (m *Dense) SubMat(b *Dense) *Dense {
	m.dimCheck(b)
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

func (m *Dense) dimCheck(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m * b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: product dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*b.cols : (i+1)*b.cols]
		for k, mik := range mi {
			if num.IsZero(mik) {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * x.
func (m *Dense) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range mi {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// IsSymmetric reports whether the matrix is symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.data[i*n+j]-m.data[j*n+i]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Equal reports whether m and b have the same shape and elements within tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}
