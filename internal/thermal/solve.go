package thermal

import (
	"errors"

	"tecopt/internal/faults"
	"tecopt/internal/mat"
	"tecopt/internal/num"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// Solver method selection for steady-state solves.
type Method int

const (
	// MethodBandCholesky, the zero value, is the RCM + envelope
	// (variable-band) direct solver (exact) — the right choice for the
	// repeated factor-and-solve pattern of the optimizer.
	MethodBandCholesky Method = iota
	// MethodCG forces the preconditioned conjugate-gradient solver.
	MethodCG
	// MethodDenseCholesky forces a dense O(n^3) factorization — the
	// paper's stated method, practical for small models and useful as a
	// reference in solver-equivalence tests.
	MethodDenseCholesky
)

// ErrNotPD reports that the system matrix is not positive definite, i.e.
// the operating point is at or beyond the thermal-runaway limit. It
// carries tecerr.CodeNotPD.
var ErrNotPD error = tecerr.New(tecerr.CodeNotPD, "thermal.factor",
	"thermal: system matrix not positive definite (beyond runaway limit?)")

// Factorization is a reusable direct factorization of a system matrix,
// with the RCM permutation folded in.
type Factorization struct {
	chol *sparse.BandCholesky
	perm []int // old -> new
	inv  []int // new -> old
}

// Factor computes an RCM-ordered envelope Cholesky factorization of the
// symmetric positive definite matrix a, loaded from a through the
// permutation. perm may be a precomputed RCM permutation for a's
// pattern (pass nil to compute one here); reusing a permutation across
// the many G - i*D factorizations of the optimizer saves the ordering
// cost, since the pattern never changes with i.
func Factor(a *sparse.CSR, perm []int) (*Factorization, error) {
	if perm == nil {
		perm = sparse.RCM(a)
	}
	chol, err := sparse.NewBandCholesky(a, perm)
	if err != nil {
		return nil, ErrNotPD
	}
	return &Factorization{chol: chol, perm: perm, inv: sparse.InvertPerm(perm)}, nil
}

// Solve solves A x = b using the factorization. A wrong-length rhs is
// reported as a tecerr.CodeInvalidInput error.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	if len(b) != len(f.perm) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.factor",
			"thermal: Factorization.Solve rhs length %d, want %d", len(b), len(f.perm))
	}
	xp, err := f.chol.Solve(sparse.PermuteVec(f.perm, b))
	if err != nil {
		return nil, err
	}
	return sparse.PermuteVec(f.inv, xp), nil
}

// SolveUnits returns the columns A^{-1} e_k for k in idx, in idx order:
// W = G^{-1} U of an SMW setup, through the blocked
// sparse.BandCholesky.SolveUnits. Each column is bitwise the Solve of
// its unit vector. An index outside [0, n) is a tecerr.CodeInvalidInput
// error.
func (f *Factorization) SolveUnits(idx []int) ([][]float64, error) {
	n := len(f.perm)
	pidx := make([]int, len(idx))
	for j, k := range idx {
		if k < 0 || k >= n {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.factor",
				"thermal: Factorization.SolveUnits index %d out of range %d", k, n)
		}
		pidx[j] = f.perm[k]
	}
	cols, err := f.chol.SolveUnits(pidx)
	if err != nil {
		return nil, err
	}
	// Back to the original ordering in place: x[i] = xp[perm[i]].
	xp := make([]float64, n)
	for _, col := range cols {
		copy(xp, col)
		for i, p := range f.perm {
			col[i] = xp[p]
		}
	}
	return cols, nil
}

// SolveSteady solves G*theta = rhs with the selected method.
func SolveSteady(g *sparse.CSR, rhs []float64, m Method) ([]float64, error) {
	switch m {
	case MethodBandCholesky:
		f, err := Factor(g, nil)
		if err != nil {
			return nil, err
		}
		return f.Solve(rhs)
	case MethodCG:
		res, err := sparse.SolveCG(g, rhs, sparse.CGOptions{
			Tol:     1e-12,
			Precond: sparse.NewBestPreconditioner(g),
		})
		if err != nil {
			if errors.Is(err, sparse.ErrBreakdown) {
				return nil, ErrNotPD
			}
			return nil, err
		}
		return res.X, nil
	case MethodDenseCholesky:
		n := g.Rows()
		d := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			cols, vals := g.RowNNZ(i)
			for k, j := range cols {
				d.Set(i, j, vals[k])
			}
		}
		chol, err := mat.NewCholesky(d)
		if err != nil {
			return nil, ErrNotPD
		}
		return chol.Solve(rhs), nil
	default:
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.solve",
			"thermal: unknown method %d", m)
	}
}

// PowerVector assembles the full nodal power vector p from per-tile
// silicon powers (W): p[SilNode[t]] = tilePower[t], everything else zero.
// Joule terms for active TECs are added by the caller, which owns the
// current level.
func (pn *PackageNetwork) PowerVector(tilePower []float64) ([]float64, error) {
	if len(tilePower) != pn.NumTiles() {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.power",
			"thermal: tile power length %d, want %d", len(tilePower), pn.NumTiles())
	}
	p := make([]float64, pn.Net.NumNodes())
	for t, pw := range tilePower {
		pw = faults.Float64(faults.SitePower, pw)
		if !num.IsFinite(pw) {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.power",
				"thermal: non-finite power %g at tile %d", pw, t)
		}
		if pw < 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.power",
				"thermal: negative power %g at tile %d", pw, t)
		}
		p[pn.SilNode[t]] = pw
	}
	return p, nil
}

// SiliconTemps extracts the silicon-tile temperatures (kelvin) from a
// full nodal solution.
func (pn *PackageNetwork) SiliconTemps(theta []float64) []float64 {
	out := make([]float64, pn.NumTiles())
	for t, n := range pn.SilNode {
		out[t] = theta[n]
	}
	return out
}

// PeakSilicon returns the hottest silicon tile temperature and its index.
func (pn *PackageNetwork) PeakSilicon(theta []float64) (maxK float64, tile int) {
	maxK, tile = theta[pn.SilNode[0]], 0
	for t, n := range pn.SilNode[1:] {
		if theta[n] > maxK {
			maxK, tile = theta[n], t+1
		}
	}
	return maxK, tile
}

// SolvePassive is a convenience: solve the package with the given
// per-tile powers and no TEC current (pure conduction + convection).
func (pn *PackageNetwork) SolvePassive(tilePower []float64, m Method) ([]float64, error) {
	p, err := pn.PowerVector(tilePower)
	if err != nil {
		return nil, err
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	return SolveSteady(pn.Net.G(), rhs, m)
}
