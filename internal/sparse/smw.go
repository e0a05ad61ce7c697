package sparse

import (
	"math"

	"tecopt/internal/eigen"
	"tecopt/internal/faults"
	"tecopt/internal/mat"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// SMW applies Sherman-Morrison-Woodbury corrections for shifted systems
//
//	(G - i * diag(d)) x = b
//
// where d is supported on few entries (for the TEC model: two rows per
// device), so diag(d) = U S U' is a rank-m update of a fixed G. Given a
// solver for G (one factorization, reused for every current), the
// correction of a solution (Correct) costs two m x m matrix-vector
// products and one n x m product on top of its base solve, and that of
// one entry (CorrectEntry) the two m x m products and m terms of the
// n x m one — versus a full O(n*bw^2) refactorization per current on
// the direct path.
//
// Construction precomputes, once per system:
//
//	W  = G^{-1} U                (m base solves)
//	M  = U' W = U' G^{-1} U      (m x m, symmetric positive definite)
//	M  = L L'                    (dense Cholesky)
//	T  = L' S L = Q Mu Q'        (symmetric eigendecomposition)
//
// T is similar to S*M (L' (S M) L^{-T} = T), so the capacitance matrix
// of the Woodbury identity diagonalizes for every shift at once:
//
//	(I - i*S*M)^{-1} = L^{-T} Q diag(1/(1 - i*mu_j)) Q' L'
//
// and the per-current correction is
//
//	x = y + i * W * P2 * diag(1/(1 - i*mu_j)) * P1 * t,
//	y = G^{-1} b,  t = y[idx],  P1 = Q' L' S,  P2 = L^{-T} Q.
//
// The eigenvalues mu_j are exactly those of G^{-1} diag(d), so the
// largest one also yields the thermal-runaway limit lambda_m = 1/mu_max
// (Theorem 1 via the spectral reduction of internal/core) for free.
type SMW struct {
	n   int
	idx []int // support of d: the rows/columns of the update
	// w holds the m columns of W = G^{-1} U, each of length n.
	w [][]float64
	// mu holds the eigenvalues of the reduced pencil, ascending.
	mu []float64
	// p1, p2 are the m x m projection factors (row-major): the
	// correction is x = y + i * W * p2 * diag(1/(1-i*mu)) * p1 * y[idx].
	p1, p2 []float64
	// gapTol is the relative conditioning floor for the diagonal factors
	// 1 - i*mu_j; a gap below it means the capacitance matrix is too
	// close to singular for the correction to hold full accuracy.
	gapTol float64
}

// ErrSMWIllConditioned reports that a requested shift puts the
// capacitance matrix too close to singular (the operating point is
// within the conditioning guard of 1/mu_j for some j — near the runaway
// limit lambda_m in the thermal model), so the Woodbury correction
// cannot deliver full accuracy and the caller should fall back to a
// direct solve. It carries tecerr.CodeDiverged.
var ErrSMWIllConditioned error = tecerr.New(tecerr.CodeDiverged, "sparse.smw",
	"sparse: SMW capacitance matrix ill-conditioned at this shift")

// defaultSMWGapTol keeps the correction's relative error near machine
// epsilon divided by the gap below ~1e-9, the equivalence tolerance the
// property tests assert against the direct path.
const defaultSMWGapTol = 1e-7

// NewSMW builds the correction data for the diagonal update d (length
// n), using solve to apply G^{-1} (typically a banded Cholesky solve of
// the unshifted base matrix). solve is called m times with unit vectors
// during construction and never retained. A zero-support d yields an
// SMW whose Correct is the identity and whose Lambda is +Inf. It is
// NewSMWUnits with one solve per unit column, bitwise equal to it when
// the column solves are.
func NewSMW(d []float64, solve func([]float64) ([]float64, error)) (*SMW, error) {
	return NewSMWUnits(d, func(idx []int) ([][]float64, error) {
		w := make([][]float64, len(idx))
		e := make([]float64, len(d))
		for j, k := range idx {
			e[k] = 1
			col, err := solve(e)
			if err != nil {
				return nil, tecerr.Wrapf(tecerr.CodeOf(err), "sparse.smw", err,
					"sparse: SMW base solve for support column %d failed", k)
			}
			e[k] = 0
			w[j] = col
		}
		return w, nil
	})
}

// NewSMWUnits builds the correction data for the diagonal update d
// (length n). solveUnits returns the columns G^{-1} e_k for k in the
// support of d, in the order given (W = G^{-1} U; for a band factor,
// BandCholesky.SolveUnits); it is called once and never retained. A
// non-finite entry of d is a tecerr.CodeInvalidInput error.
func NewSMWUnits(d []float64, solveUnits func(idx []int) ([][]float64, error)) (*SMW, error) {
	n := len(d)
	var idx []int
	for k, v := range d {
		if !num.IsFinite(v) {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
				"sparse: non-finite SMW update entry %g at %d", v, k)
		}
		if !num.IsZero(v) {
			idx = append(idx, k)
		}
	}
	s := &SMW{n: n, idx: idx, gapTol: defaultSMWGapTol}
	m := len(idx)
	if r := obs.Enabled(); r != nil {
		start := r.Now()
		defer func() {
			r.Counter("sparse.smw.setups").Inc()
			r.Histogram("sparse.smw.setup_ns").Observe(clampNS(r.Now() - start))
			r.Gauge("sparse.smw.rank").Set(int64(m))
		}()
	}
	if m == 0 {
		return s, nil
	}
	w, err := solveUnits(idx)
	if err != nil {
		return nil, tecerr.Wrapf(tecerr.CodeOf(err), "sparse.smw", err,
			"sparse: SMW base solves failed")
	}
	if len(w) != m {
		return nil, tecerr.Newf(tecerr.CodeInternal, "sparse.smw",
			"sparse: SMW base solves returned %d columns, want %d", len(w), m)
	}
	for _, col := range w {
		if len(col) != n {
			return nil, tecerr.Newf(tecerr.CodeInternal, "sparse.smw",
				"sparse: SMW base solve returned length %d, want %d", len(col), n)
		}
	}
	s.w = w
	if err := s.project(d); err != nil {
		return nil, err
	}
	return s, nil
}

// project computes the dense stage of the setup from W: M, its Cholesky
// factor L, the eigendecomposition of T = L'SL, and P1, P2. Each sum is
// accumulated in the order of its textbook element-wise formula, so the
// results are bitwise that formula's (DESIGN.md section 12), but the
// loops run as row updates over flat rows of L, L', Q and Q': every
// inner loop is contiguous, and its iterations are independent.
func (s *SMW) project(d []float64) error {
	m := len(s.idx)
	sv := make([]float64, m) // S = diag(d[idx])
	for a, k := range s.idx {
		sv[a] = d[k]
	}

	// M = U' W, symmetrized: it is a Gram matrix of G^{-1}, so any
	// asymmetry is pure rounding from the base solves.
	mm := mat.NewDense(m, m)
	for a, k := range s.idx {
		row := mm.RawRow(a)
		for b, col := range s.w {
			row[b] = col[k]
		}
	}
	chol, err := mat.NewCholesky(mat.Symmetrize(mm))
	if err != nil {
		return tecerr.Wrapf(tecerr.CodeInternal, "sparse.smw", err,
			"sparse: SMW projected matrix U' G^{-1} U not positive definite")
	}
	l := chol.L()
	lt := l.T()

	// T = L' S L: T[a][b] = sum_k (L[k][a] s_k) L[k][b], b <= a, summed
	// over ascending k as row k of L updates row a of T. L[k][a] is an
	// exact zero for k < a and s_k is finite, so those terms would add
	// +0 to the +0 each sum starts from: the sums start at k = a.
	t := mat.NewDense(m, m)
	for a := 0; a < m; a++ {
		ta := t.RawRow(a)[:a+1]
		for k := a; k < m; k++ {
			lk := l.RawRow(k)[:a+1]
			x := lk[a] * sv[k]
			for b, v := range lk {
				ta[b] += x * v
			}
		}
		for b, v := range ta[:a] {
			t.RawRow(b)[a] = v
		}
	}
	mu, q, err := eigen.SymEig(t, true)
	if err != nil {
		return tecerr.Wrapf(tecerr.CodeInternal, "sparse.smw", err,
			"sparse: SMW eigendecomposition of the reduced pencil failed")
	}
	s.mu = mu
	qt := q.T()

	// P1 = Q' L' S: p1[j][a] = (sum_{k <= a} Q[k][j] L[a][k]) s_a, summed
	// over ascending k as row k of L' (column k of L) updates row j.
	s.p1 = make([]float64, m*m)
	for j := 0; j < m; j++ {
		p1 := s.p1[j*m : (j+1)*m]
		for k, qkj := range qt.RawRow(j) {
			lk := lt.RawRow(k)[k:]
			for a, v := range lk {
				p1[k+a] += qkj * v
			}
		}
		for a := range p1 {
			p1[a] *= sv[a]
		}
	}
	// P2 = L^{-T} Q by back substitution on all m columns at once: row a
	// is (Q[a] - sum_{k > a} L[k][a] P2[k]) / L[a][a], over ascending k.
	s.p2 = make([]float64, m*m)
	for a := m - 1; a >= 0; a-- {
		pa := s.p2[a*m : (a+1)*m]
		copy(pa, q.RawRow(a))
		la := lt.RawRow(a)
		for k := a + 1; k < m; k++ {
			lka := la[k]
			pk := s.p2[k*m : (k+1)*m]
			for j, v := range pk {
				pa[j] -= lka * v
			}
		}
		for j := range pa {
			pa[j] /= la[a]
		}
	}
	return nil
}

// Rank returns the update rank m (the support size of d).
func (s *SMW) Rank() int { return len(s.idx) }

// MuMax returns the largest eigenvalue of G^{-1} diag(d), or 0 when the
// update is empty.
func (s *SMW) MuMax() float64 {
	if len(s.mu) == 0 {
		return 0
	}
	return s.mu[len(s.mu)-1]
}

// Lambda returns the spectral shift limit 1/mu_max: G - i*diag(d) is
// positive definite for 0 <= i < Lambda and indefinite beyond it
// (Theorem 1). +Inf when mu_max <= 0 (no positive support: the system
// cannot run away).
func (s *SMW) Lambda() float64 {
	muMax := s.MuMax()
	if muMax <= 0 {
		return math.Inf(1)
	}
	return 1 / muMax
}

// Correct turns y = G^{-1} b into (G - i*diag(d))^{-1} b in place.
// It returns ErrSMWIllConditioned when the shift lands within the
// conditioning guard of a capacitance-matrix singularity (callers fall
// back to a direct factorization of the shifted matrix) and a
// tecerr.CodeInvalidInput error for a non-finite shift or wrong-length
// vector. Correct is safe for concurrent use: the precomputed data is
// read-only and all scratch is local.
func (s *SMW) Correct(i float64, y []float64) error {
	return s.correction(i, y, func(c float64, col []float64) {
		col = col[:len(y)]
		for k := range y {
			y[k] += c * col[k]
		}
	})
}

// CorrectEntry returns entry k of (G - i*diag(d))^{-1} b for y = G^{-1} b:
// bitwise what Correct leaves in y[k], without modifying y. It pays the
// two m x m products and m terms of the n x m one. Its errors are
// Correct's, and an index k outside [0, n) is a tecerr.CodeInvalidInput
// error. CorrectEntry is safe for concurrent use.
func (s *SMW) CorrectEntry(i float64, y []float64, k int) (float64, error) {
	if k < 0 || k >= len(y) {
		return 0, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
			"sparse: SMW entry %d out of range %d", k, len(y))
	}
	x := y[k]
	if err := s.correction(i, y, func(c float64, col []float64) { x += c * col[k] }); err != nil {
		return 0, err
	}
	return x, nil
}

// correction runs what Correct and CorrectEntry share: the checks, the
// conditioning guard, u = diag(i/(1 - i*mu)) P1 y[idx] and c = P2 u. It
// hands each nonzero c_a to add with column a of W, in ascending a; the
// correction is the sum of the c_a W[a]. Both products run four rows at
// a time, each row summed over ascending index as it would be alone.
func (s *SMW) correction(i float64, y []float64, add func(c float64, col []float64)) error {
	if !num.IsFinite(i) {
		return tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
			"sparse: non-finite SMW shift %g", i)
	}
	if len(y) != s.n {
		return tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
			"sparse: SMW vector length %d, want %d", len(y), s.n)
	}
	idx := s.idx
	m := len(idx)
	if m == 0 || num.IsZero(i) {
		return nil
	}
	// Conditioning guard: every diagonal factor 1 - i*mu_j must sit a
	// relative gapTol away from zero, or the correction loses the
	// accuracy contract. The margin passes through the chaos filter so
	// fault-injection tests can force the fallback path.
	minGap := math.Inf(1)
	for _, mu := range s.mu {
		gap := math.Abs(1-i*mu) / (1 + math.Abs(i*mu))
		if gap < minGap {
			minGap = gap
		}
	}
	minGap = faults.Float64(faults.SiteSMWGuard, minGap)
	if math.IsNaN(minGap) || minGap < s.gapTol {
		if r := obs.Enabled(); r != nil {
			r.Counter("sparse.smw.guard_trips").Inc()
		}
		return ErrSMWIllConditioned
	}
	if r := obs.Enabled(); r != nil {
		start := r.Now()
		defer func() {
			r.Counter("sparse.smw.corrections").Inc()
			r.Histogram("sparse.smw.correct_ns").Observe(clampNS(r.Now() - start))
		}()
	}
	// u = P1 * y[idx], scaled by the diagonalized resolvent.
	u := make([]float64, m)
	j := 0
	for ; j+3 < m; j += 4 {
		r0 := s.p1[j*m : (j+1)*m][:m]
		r1 := s.p1[(j+1)*m : (j+2)*m][:m]
		r2 := s.p1[(j+2)*m : (j+3)*m][:m]
		r3 := s.p1[(j+3)*m : (j+4)*m][:m]
		var v0, v1, v2, v3 float64
		for a, k := range idx {
			yk := y[k]
			v0 += r0[a] * yk
			v1 += r1[a] * yk
			v2 += r2[a] * yk
			v3 += r3[a] * yk
		}
		u[j] = v0 * i / (1 - i*s.mu[j])
		u[j+1] = v1 * i / (1 - i*s.mu[j+1])
		u[j+2] = v2 * i / (1 - i*s.mu[j+2])
		u[j+3] = v3 * i / (1 - i*s.mu[j+3])
	}
	for ; j < m; j++ {
		var v float64
		row := s.p1[j*m : (j+1)*m][:m]
		for a, k := range idx {
			v += row[a] * y[k]
		}
		u[j] = v * i / (1 - i*s.mu[j])
	}
	// c = P2 * u.
	a := 0
	for ; a+3 < m; a += 4 {
		r0 := s.p2[a*m : (a+1)*m][:m]
		r1 := s.p2[(a+1)*m : (a+2)*m][:m]
		r2 := s.p2[(a+2)*m : (a+3)*m][:m]
		r3 := s.p2[(a+3)*m : (a+4)*m][:m]
		var v0, v1, v2, v3 float64
		for j, uj := range u {
			v0 += r0[j] * uj
			v1 += r1[j] * uj
			v2 += r2[j] * uj
			v3 += r3[j] * uj
		}
		for q, v := range [4]float64{v0, v1, v2, v3} {
			if !num.IsZero(v) {
				add(v, s.w[a+q])
			}
		}
	}
	for ; a < m; a++ {
		var v float64
		row := s.p2[a*m : (a+1)*m]
		for j := 0; j < m; j++ {
			v += row[j] * u[j]
		}
		if !num.IsZero(v) {
			add(v, s.w[a])
		}
	}
	return nil
}
