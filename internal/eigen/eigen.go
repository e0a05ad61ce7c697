// Package eigen provides symmetric eigenvalue solvers: Householder
// tridiagonalization with implicit-shift QL for dense symmetric
// matrices, plus power iteration for the dominant eigenvalue of a
// large symmetric operator.
//
// In this repository SymEig diagonalizes the SMW capacitance pencil of
// sparse.NewSMW, whose largest eigenvalue gives the spectral runaway
// limit lambda_m of Theorem 1, and PowerIteration estimates the
// condition number of G - i*D (core.System.ConditionNumber).
package eigen

import (
	"errors"
	"fmt"
	"math"

	"tecopt/internal/mat"
	"tecopt/internal/num"
)

// ErrNotConverged is returned when an iterative eigenvalue routine fails
// to meet its tolerance within the iteration budget.
var ErrNotConverged = errors.New("eigen: iteration did not converge")

// SymEig computes all eigenvalues (ascending) and, when wantVectors is
// set, the corresponding orthonormal eigenvectors (as matrix columns) of
// the symmetric matrix a. Only the lower triangle is read.
//
// The work runs on a flat row-major copy of a: tred2 reduces it to
// tridiagonal form and accumulates Q with A = Q T Q', then the QL
// iteration rotates Q' (Q transposed), so that every Givens rotation
// updates two contiguous rows. The results are bitwise those of the
// textbook column-oriented loops: each value sees the same operations in
// the same order (DESIGN.md section 12).
func SymEig(a *mat.Dense, wantVectors bool) (values []float64, vectors *mat.Dense, err error) {
	if !a.IsSquare() {
		return nil, nil, fmt.Errorf("eigen: non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	if n == 0 {
		return nil, nil, nil
	}
	z := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(z[i*n:(i+1)*n], a.RawRow(i))
	}
	// Symmetrize, (A + A')/2, as mat.Symmetrize does.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (z[i*n+j] + z[j*n+i])
			z[i*n+j] = v
			z[j*n+i] = v
		}
	}
	d, e := tred2(z, n, wantVectors)
	var qt []float64
	if wantVectors {
		transpose(z, n)
		qt = z
	}
	if err := tql(d, e, qt); err != nil {
		return nil, nil, err
	}
	// Sort ascending (tql leaves them unsorted in general).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[idx[j]] < d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	values = make([]float64, n)
	for i, k := range idx {
		values[i] = d[k]
	}
	if wantVectors {
		vectors = mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			row := vectors.RawRow(i)
			for j, k := range idx {
				row[j] = qt[k*n+i]
			}
		}
	}
	return values, vectors, nil
}

// tred2 reduces the symmetric n x n row-major matrix z in place to
// tridiagonal form (the Numerical Recipes tred2), returning the diagonal
// d and subdiagonal e (e[0] unused). When wantQ is set it then
// accumulates the orthogonal transform into z, leaving Q with A = Q T Q';
// otherwise z is left as scratch. The diagonal does not depend on the
// accumulation, which never writes z[i][i] before reading it.
func tred2(z []float64, n int, wantQ bool) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, n)
	g := make([]float64, n)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := z[i*n : i*n+i] // row i, columns 0..l
		var h, scale float64
		if l > 0 {
			for _, v := range zi {
				scale += math.Abs(v)
			}
			if num.IsZero(scale) {
				e[i] = zi[l]
			} else {
				for k := range zi {
					zi[k] /= scale
					h += zi[k] * zi[k]
				}
				f := zi[l]
				gg := math.Sqrt(h)
				if f > 0 {
					gg = -gg
				}
				e[i] = scale * gg
				h -= f * gg
				zi[l] = f - gg
				// g = A u over the lower triangle of the leading block,
				// one row at a time: row j adds its own terms k <= j to
				// g[j] and its terms below the diagonal to g[k], k < j.
				// Each g[j] thus sums k = 0..l in ascending order, as
				// the column-wise loop does.
				gs := g[:i]
				for j := range gs {
					z[j*n+i] = zi[j] / h
					gs[j] = 0
				}
				for j := range gs {
					zj := z[j*n : j*n+j]
					zij := zi[j]
					acc := gs[j]
					for k, v := range zj {
						acc += v * zi[k]
						gs[k] += v * zij
					}
					gs[j] = acc + z[j*n+j]*zij
				}
				f = 0
				for j, gj := range gs {
					e[j] = gj / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = zi[j]
					gg = e[j] - hh*f
					e[j] = gg
					zj := z[j*n : j*n+j+1]
					for k := range zj {
						zj[k] = zj[k] - f*e[k] - gg*zi[k]
					}
				}
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	if !wantQ {
		for i := 0; i < n; i++ {
			d[i] = z[i*n+i]
		}
		return d, e
	}
	// Accumulate transforms. Step i computes g[j] = sum_k z[i][k] z[k][j]
	// for every j before updating any column: the updates write rows
	// 0..i-1 only, never row i, so g is the same as when each column's
	// update follows its own sum.
	for i := 0; i < n; i++ {
		zi := z[i*n : i*n+i]
		if !num.IsZero(d[i]) {
			gs := g[:i]
			for j := range gs {
				gs[j] = 0
			}
			for k, zik := range zi {
				zk := z[k*n : k*n+i]
				for j := range gs {
					gs[j] += zik * zk[j]
				}
			}
			for k := range zi {
				zk := z[k*n : k*n+i+1]
				zki := zk[i]
				for j, gj := range gs {
					zk[j] -= gj * zki
				}
			}
		}
		d[i] = z[i*n+i]
		z[i*n+i] = 1
		for j := range zi {
			z[j*n+i] = 0
			zi[j] = 0
		}
	}
	return d, e
}

// transpose transposes the n x n row-major matrix z in place.
func transpose(z []float64, n int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			z[i*n+j], z[j*n+i] = z[j*n+i], z[i*n+j]
		}
	}
}

// tql runs implicit-shift QL on the tridiagonal (d, e). When qt is
// non-nil it holds Q' as an n x n row-major matrix (row k is the k-th
// column of Q), and each rotation of columns i and i+1 of Q updates the
// contiguous rows i and i+1 of qt.
func tql(d, e, qt []float64) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter > 50 {
				return ErrNotConverged
			}
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if num.IsZero(r) {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if qt != nil {
					qi := qt[i*n : (i+1)*n]
					qi1 := qt[(i+1)*n : (i+2)*n]
					for k, f := range qi1 {
						qi1[k] = s*qi[k] + c*f
						qi[k] = c*qi[k] - s*f
					}
				}
			}
			if num.IsZero(r) && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// Op is a symmetric linear operator y = A x.
type Op func(x []float64) []float64

// PowerIteration estimates the dominant (largest |lambda|) eigenpair of
// the symmetric operator op of dimension n.
func PowerIteration(op Op, n int, tol float64, maxIter int) (lambda float64, vec []float64, err error) {
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 5000
	}
	v := make([]float64, n)
	// Deterministic, non-degenerate start.
	for i := range v {
		v[i] = 1 + float64(i%7)/7
	}
	normalize(v)
	prev := math.Inf(1)
	for it := 0; it < maxIter; it++ {
		w := op(v)
		lambda = mat.Dot(v, w)
		nw := normalize(w)
		if num.IsZero(nw) {
			return 0, v, nil // operator annihilated the iterate: lambda ~ 0
		}
		v = w
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			return lambda, v, nil
		}
		prev = lambda
	}
	return lambda, v, ErrNotConverged
}

func normalize(v []float64) float64 {
	n := mat.Norm2(v)
	if num.IsZero(n) {
		return 0
	}
	mat.ScaleVec(1/n, v)
	return n
}
