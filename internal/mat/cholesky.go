package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L * L'.
type Cholesky struct {
	n int
	l *Dense // lower triangular, upper part zero
}

// NewCholesky factors the symmetric positive definite matrix a.
// Only the lower triangle of a is read. It returns
// ErrNotPositiveDefinite if a pivot is not strictly positive, which is the
// paper's O(n^3) positive-definiteness test (Section V.C.1).
func NewCholesky(a *Dense) (*Cholesky, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		// Diagonal pivot.
		d := a.data[j*n+j]
		lj := l.data[j*n : (j+1)*n]
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		piv := math.Sqrt(d)
		lj[j] = piv
		// Column below the pivot.
		for i := j + 1; i < n; i++ {
			s := a.data[i*n+j]
			li := l.data[i*n : i*n+j]
			for k, v := range li {
				s -= v * lj[k]
			}
			l.data[i*n+j] = s / piv
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// IsPositiveDefinite reports whether the symmetric matrix a is positive
// definite, using a Cholesky factorization attempt.
func IsPositiveDefinite(a *Dense) bool {
	_, err := NewCholesky(a)
	return err == nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// Solve solves A x = b for x, where A = L L' is the factored matrix.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: Cholesky.Solve rhs length %d, want %d", len(b), c.n))
	}
	y := c.forward(b)
	return c.backward(y)
}

// forward solves L y = b.
func (c *Cholesky) forward(b []float64) []float64 {
	n := c.n
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		li := c.l.data[i*n : i*n+i]
		for k, v := range li {
			s -= v * y[k]
		}
		y[i] = s / c.l.data[i*n+i]
	}
	return y
}

// backward solves L' x = y.
func (c *Cholesky) backward(y []float64) []float64 {
	n := c.n
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * x[k]
		}
		x[i] = s / c.l.data[i*n+i]
	}
	return x
}

// Inverse returns A^{-1} as a dense matrix, solving against the columns of
// the identity. For the compact thermal models this is H = (G - i D)^{-1},
// whose entries h_kl the paper analyzes directly.
func (c *Cholesky) Inverse() *Dense {
	n := c.n
	inv := NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		x := c.Solve(e)
		for i := 0; i < n; i++ {
			inv.data[i*n+j] = x[i]
		}
		e[j] = 0
	}
	return inv
}
