package thermal

import (
	"errors"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// ErrNotPD reports that the system matrix is not positive definite, i.e.
// the operating point is at or beyond the thermal-runaway limit. It
// carries tecerr.CodeNotPD.
var ErrNotPD error = tecerr.New(tecerr.CodeNotPD, "thermal.factor",
	"thermal: system matrix not positive definite (beyond runaway limit?)")

// Factorization is a reusable direct factorization of a system matrix
// under a fill-reducing ordering.
type Factorization struct {
	chol *sparse.Cholesky
}

// Factor computes a sparse Cholesky factorization of the symmetric
// positive definite matrix a under the permutation perm (old -> new),
// or under a's minimum-degree ordering when perm is nil. Reusing a
// permutation across the many G - i*D factorizations of one network
// saves the ordering cost, since the pattern never changes with i. Any
// permutation factors correctly; the fill, and so the cost, is
// MinDegree's to reduce. A matrix that is not positive definite is
// ErrNotPD.
func Factor(a *sparse.CSR, perm []int) (*Factorization, error) {
	if perm == nil {
		perm = sparse.MinDegree(a)
	}
	chol, err := sparse.NewCholesky(a, perm)
	if errors.Is(err, tecerr.ErrNotPD) {
		return nil, ErrNotPD
	}
	if err != nil {
		return nil, err
	}
	return &Factorization{chol: chol}, nil
}

// Solve solves A x = b using the factorization. A wrong-length rhs is
// reported as a tecerr.CodeInvalidInput error.
func (f *Factorization) Solve(b []float64) ([]float64, error) { return f.chol.Solve(b) }

// SolveUnits returns the columns A^{-1} e_k for k in idx, in idx order:
// W = G^{-1} U of an SMW setup, through the blocked
// sparse.Cholesky.SolveUnits. Each column is bitwise the Solve of its
// unit vector. An index outside [0, n) is a tecerr.CodeInvalidInput
// error.
func (f *Factorization) SolveUnits(idx []int) ([][]float64, error) { return f.chol.SolveUnits(idx) }

// SolveSteady solves G*theta = rhs by a minimum-degree ordered sparse
// Cholesky factorization of G.
func SolveSteady(g *sparse.CSR, rhs []float64) ([]float64, error) {
	f, err := Factor(g, nil)
	if err != nil {
		return nil, err
	}
	return f.Solve(rhs)
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
func (pn *PackageNetwork) SolvePassive(tilePower []float64) ([]float64, error) {
	p, err := pn.PowerVector(tilePower)
	if err != nil {
		return nil, err
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	return SolveSteady(pn.Net.G(), rhs)
}
