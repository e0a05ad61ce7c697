package sparse

import (
	"math"

	"tecopt/internal/obs"
)

// IC0 is a zero-fill incomplete Cholesky preconditioner: A ~ L L' with L
// restricted to the sparsity pattern of the lower triangle of A. For the
// grid Laplacians produced by the thermal models it typically cuts CG
// iteration counts by 3-5x compared to Jacobi.
type IC0 struct {
	n      int
	rowPtr []int // lower-triangular pattern, strictly below the diagonal
	colIdx []int
	vals   []float64
	diag   []float64 // L diagonal entries
}

// NewIC0 computes the incomplete factorization. It returns
// ErrBreakdown if a pivot becomes non-positive, which can happen for
// matrices that are not (sufficiently) diagonally dominant. Setup time
// and outcome are reported under "sparse.ic0.*" when observability is
// enabled.
func NewIC0(a *CSR) (*IC0, error) {
	r := obs.Enabled()
	if r == nil {
		return newIC0(a)
	}
	start := r.Now()
	p, err := newIC0(a)
	r.Counter("sparse.ic0.setups").Inc()
	r.ObserveSince("sparse.ic0.setup_ns", start)
	if err != nil {
		r.Counter("sparse.ic0.setup_failures").Inc()
	}
	return p, err
}

// newIC0 is the uninstrumented incomplete factorization.
func newIC0(a *CSR) (*IC0, error) {
	n := a.Rows()
	if a.Cols() != n {
		panic("sparse: IC0 needs a square matrix")
	}
	// Extract the strictly-lower pattern and values plus diagonal.
	rowPtr := make([]int, n+1)
	var colIdx []int
	var vals []float64
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vs := a.RowNNZ(i)
		for k, j := range cols {
			switch {
			case j < i:
				colIdx = append(colIdx, j)
				vals = append(vals, vs[k])
			case j == i:
				diag[i] = vs[k]
			}
		}
		rowPtr[i+1] = len(colIdx)
	}

	// In-place IKJ incomplete factorization.
	// l_ij = (a_ij - sum_k l_ik l_jk) / l_jj for j < i, pattern-restricted;
	// l_ii = sqrt(a_ii - sum_k l_ik^2).
	for i := 0; i < n; i++ {
		for kk := rowPtr[i]; kk < rowPtr[i+1]; kk++ {
			j := colIdx[kk]
			s := vals[kk]
			// Dot product of rows i and j over shared columns < j.
			pi, pj := rowPtr[i], rowPtr[j]
			for pi < kk && pj < rowPtr[j+1] {
				ci, cj := colIdx[pi], colIdx[pj]
				switch {
				case ci == cj:
					s -= vals[pi] * vals[pj]
					pi++
					pj++
				case ci < cj:
					pi++
				default:
					pj++
				}
			}
			vals[kk] = s / diag[j]
		}
		s := diag[i]
		for kk := rowPtr[i]; kk < rowPtr[i+1]; kk++ {
			s -= vals[kk] * vals[kk]
		}
		if s <= 0 || math.IsNaN(s) {
			return nil, ErrBreakdown
		}
		diag[i] = math.Sqrt(s)
	}
	return &IC0{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals, diag: diag}, nil
}

// Apply solves L L' z = r.
func (p *IC0) Apply(z, r []float64) {
	n := p.n
	// Forward solve L y = r (y stored in z).
	for i := 0; i < n; i++ {
		s := r[i]
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			s -= p.vals[k] * z[p.colIdx[k]]
		}
		z[i] = s / p.diag[i]
	}
	// Backward solve L' x = y.
	for i := n - 1; i >= 0; i-- {
		z[i] /= p.diag[i]
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			z[p.colIdx[k]] -= p.vals[k] * z[i]
		}
	}
}

// NewBestPreconditioner returns IC(0) when the factorization succeeds and
// falls back to Jacobi otherwise.
func NewBestPreconditioner(a *CSR) Preconditioner {
	if ic, err := NewIC0(a); err == nil {
		return ic
	}
	return NewJacobi(a)
}
