package mat

import (
	"errors"
	"fmt"
	"math"

	"tecopt/internal/num"
)

// ErrSingular is returned when a factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P A = L U.
// It handles the general (possibly unsymmetric or indefinite) systems that
// arise when probing G - i*D beyond the runaway limit lambda_m, where
// Cholesky no longer applies.
type LU struct {
	n     int
	lu    *Dense // packed: L below diagonal (unit diag implicit), U on/above
	piv   []int  // row permutation
	signP float64
}

// NewLU factors the square matrix a with partial pivoting.
// It returns ErrSingular if a pivot is exactly zero.
func NewLU(a *Dense) (*LU, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("mat: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > max {
				max, p = a, i
			}
		}
		if num.IsZero(max) {
			return nil, ErrSingular
		}
		if p != k {
			rowK := lu.data[k*n : (k+1)*n]
			rowP := lu.data[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivVal
			lu.data[i*n+k] = m
			if num.IsZero(m) {
				continue
			}
			rowI := lu.data[i*n+k+1 : (i+1)*n]
			rowK := lu.data[k*n+k+1 : (k+1)*n]
			for j, v := range rowK {
				rowI[j] -= m * v
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv, signP: sign}, nil
}

// Solve solves A x = b.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic(fmt.Sprintf("mat: LU.Solve rhs length %d, want %d", len(b), f.n))
	}
	n := f.n
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward: L y = P b (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu.data[i*n : i*n+i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s
	}
	// Backward: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu.data[i*n+i+1 : (i+1)*n]
		for k, v := range row {
			s -= v * x[i+1+k]
		}
		x[i] = s / f.lu.data[i*n+i]
	}
	return x
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.signP
	for i := 0; i < f.n; i++ {
		d *= f.lu.data[i*f.n+i]
	}
	return d
}

// Inverse returns A^{-1}.
func (f *LU) Inverse() *Dense {
	n := f.n
	inv := NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		x := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.data[i*n+j] = x[i]
		}
		e[j] = 0
	}
	return inv
}

// SolveDense solves A X = B column by column and returns X.
func (f *LU) SolveDense(b *Dense) *Dense {
	if b.rows != f.n {
		panic(fmt.Sprintf("mat: LU.SolveDense rhs rows %d, want %d", b.rows, f.n))
	}
	x := NewDense(f.n, b.cols)
	col := make([]float64, f.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < f.n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		sol := f.Solve(col)
		for i := 0; i < f.n; i++ {
			x.data[i*b.cols+j] = sol[i]
		}
	}
	return x
}
