package sparse

import (
	"context"
	"math"
	"slices"

	"tecopt/internal/eigen"
	"tecopt/internal/faults"
	"tecopt/internal/mat"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// SMW reads the shifted systems
//
//	(G - i * diag(d)) x = b
//
// in pole form, where d is supported on few entries (for the TEC model:
// two rows per device), so diag(d) = U S U' is a rank-m update of a
// fixed G that a solver for G (one factorization) serves at every shift.
// Construction precomputes, once per system:
//
//	W  = G^{-1} U                (m base solves)
//	M  = U' W = U' G^{-1} U      (m x m, symmetric positive definite)
//	M  = L L'                    (dense Cholesky)
//	T  = L' S L = Q Mu Q'        (symmetric eigendecomposition)
//
// T is similar to S*M, so the Woodbury capacitance matrix diagonalizes
// for every shift at once, and with P2 = L^{-T} Q (Q' L' S = Mu P2'):
//
//	H(i) = (G - i*diag(d))^{-1} = G^{-1} + W P2 diag(phi(i)) P2' W',
//	phi_j(i) = i*mu_j / (1 - i*mu_j),
//
// G^{-1} plus a simple pole at i = 1/mu_j per eigenvalue (DESIGN.md
// section 12). A read of H(i) b from y = G^{-1} b costs O(m^2) plus O(m)
// per row it writes; an entry from its pair weights costs O(m).
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
	// p2 is the m x m factor P2 = L^{-T} Q, row-major.
	p2 []float64
	// ones is the pole form of U 1, the indicator of d's support.
	ones PoleForm
	// gapTol is the relative conditioning floor for the diagonal factors
	// 1 - i*mu_j; a gap below it means the capacitance matrix is too
	// close to singular for the correction to hold full accuracy.
	gapTol float64
}

// PoleForm is a right-hand side b prepared for reads: its base solve
// y = G^{-1} b and weights p = P2' y[idx] (Form). It is never modified.
type PoleForm struct{ y, p []float64 }

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
// n), using solve to apply G^{-1} (typically a Cholesky solve of the
// unshifted base matrix). solve is called m times with unit vectors
// during construction and never retained. A zero-support d yields an
// SMW whose Correct is the identity and whose Lambda is +Inf. It is
// NewSMWUnits with one solve per unit column, bitwise equal to it when
// the column solves are.
func NewSMW(d []float64, solve func([]float64) ([]float64, error)) (*SMW, error) {
	return NewSMWUnits(context.Background(), d, func(idx []int) ([][]float64, error) {
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
// support of d, in the order given (W = G^{-1} U; for a Cholesky
// factor, Cholesky.SolveUnits); it is called once and never retained.
// A non-finite entry of d is a tecerr.CodeInvalidInput error. In a
// recorded trace the column solves and the dense stage are the spans
// "sparse.smw.wsolve" and "sparse.smw.dense" under ctx's span.
func NewSMWUnits(ctx context.Context, d []float64, solveUnits func(idx []int) ([][]float64, error)) (*SMW, error) {
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
	s.ones.y = make([]float64, n) // G^{-1} U 1, the sum of W's columns
	m := len(idx)
	r := obs.Enabled()
	if r != nil {
		start := r.Now()
		defer func() {
			r.Counter("sparse.smw.setups").Inc()
			r.ObserveSince("sparse.smw.setup_ns", start)
			r.Gauge("sparse.smw.rank").Set(int64(m))
		}()
	}
	if m == 0 {
		return s, nil
	}
	var sp obs.Span
	if r.Tracing() {
		_, sp = r.StartSpanCtx(ctx, "sparse.smw.wsolve")
	}
	w, err := solveUnits(idx)
	sp.End()
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
		for k, v := range col {
			s.ones.y[k] += v
		}
	}
	s.w = w
	if r.Tracing() {
		_, sp = r.StartSpanCtx(ctx, "sparse.smw.dense")
		defer sp.End()
	}
	if err := s.project(d); err != nil {
		return nil, err
	}
	s.ones = s.Form(s.ones.y)
	return s, nil
}

// project computes the dense stage of the setup from W: M, its Cholesky
// factor L, the eigendecomposition of T = L'SL, and P2. Each sum is
// accumulated in the order of its textbook element-wise formula, so the
// results are bitwise that formula's (DESIGN.md section 12), but the
// loops run as row updates over flat rows of L, L' and Q: every
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

// Form returns the pole form of b from its base solve y (retained).
func (s *SMW) Form(y []float64) PoleForm {
	p := make([]float64, len(s.idx))
	s.mulP2T(y, s.idx, p)
	return PoleForm{y, p}
}

// Correct turns y = G^{-1} b into (G - i*diag(d))^{-1} b in place. It
// returns ErrSMWIllConditioned, leaving y as it was, when the shift lands
// within the conditioning guard of a capacitance-matrix singularity
// (callers fall back to a direct factorization of the shifted matrix),
// and a tecerr.CodeInvalidInput error for a non-finite shift or a
// wrong-length vector. Every read is safe for concurrent use: the
// precomputed data is read-only and all scratch is local.
func (s *SMW) Correct(i float64, y []float64) error {
	return s.Read(i, 0, PoleForm{y: y}, nil, y)
}

// Read writes rows of (G - i*diag(d))^{-1} (b + c*U 1) =
// y + c*y1 + W P2 (phi(i) o (p + c*p1)), (y1, p1) the pole form of U 1,
// into out with no base solve: row rows[r] to out[r], or every row when
// rows is nil, each summed the same way, so a rows read is bitwise those
// rows of the field. A b without weights (Correct's) is weighed here.
// Its errors are Correct's.
func (s *SMW) Read(i, c float64, b PoleForm, rows []int, out []float64) error {
	if !num.IsFinite(i) || len(b.y) != s.n {
		return tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
			"sparse: SMW shift %g and vector length %d, want finite and %d", i, len(b.y), s.n)
	}
	m := len(s.idx)
	pole := m > 0 && !num.IsZero(i)
	var phiBuf, vBuf [288]float64 // the full cover's rank reads on the stack
	phi := slices.Grow(phiBuf[:0], m)[:m]
	if pole {
		if err := s.poles(i, phi); err != nil {
			return err
		}
	}
	if rows == nil { // the field: contiguous rows
		for k, x := range s.ones.y {
			out[k] = b.y[k] + c*x
		}
	}
	for r, k := range rows {
		out[r] = b.y[k] + c*s.ones.y[k]
	}
	if !pole {
		return nil
	}
	reg := obs.Enabled()
	start := reg.Now()
	v := slices.Grow(vBuf[:0], m)[:m]
	p := b.p
	if p == nil {
		s.mulP2T(b.y, s.idx, v)
		p = v
	}
	for j, pj := range p[:m] { // u = phi o (p + c*p1), in place
		phi[j] *= pj + c*s.ones.p[j]
	}
	s.mulP2(phi, v)
	for a, va := range v { // += W v, in ascending a on every row
		col := s.w[a]
		if rows == nil {
			for k, wk := range col[:len(out)] {
				out[k] += va * wk
			}
		}
		for r, k := range rows {
			out[r] += va * col[k]
		}
	}
	reg.Counter("sparse.smw.corrections").Inc()
	reg.ObserveSince("sparse.smw.correct_ns", start)
	return nil
}

// Pair returns the weights z = (P2' W[k,:]') o (P2' y[idx]) with which
// Entry reads entry k of (G - i*diag(d))^{-1} b from y = G^{-1} b: two
// m x m products. A k outside [0, n) or a y of the wrong length is a
// tecerr.CodeInvalidInput error.
func (s *SMW) Pair(k int, y []float64) ([]float64, error) {
	if k < 0 || k >= s.n || len(y) != s.n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
			"sparse: SMW entry %d of a length-%d vector, n = %d", k, len(y), s.n)
	}
	wk, z := make([]float64, len(s.idx)), make([]float64, len(s.idx))
	for a, col := range s.w {
		wk[a] = col[k]
	}
	s.mulP2T(wk, nil, z)
	s.mulP2T(y, s.idx, wk)
	for j, v := range wk {
		z[j] *= v
	}
	return z, nil
}

// Entry returns h0 + sum_j z_j phi_j(i): entry k of
// (G - i*diag(d))^{-1} b for h0 = (G^{-1} b)_k and z its Pair weights,
// in O(m). Its errors are Correct's.
func (s *SMW) Entry(i, h0 float64, z []float64) (float64, error) {
	m := len(s.idx)
	if !num.IsFinite(i) || len(z) != m {
		return 0, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.smw",
			"sparse: SMW shift %g and %d weights, want finite and %d", i, len(z), m)
	}
	if m == 0 || num.IsZero(i) {
		return h0, nil
	}
	var phiBuf [288]float64
	phi := slices.Grow(phiBuf[:0], m)[:m]
	if err := s.poles(i, phi); err != nil {
		return 0, err
	}
	reg := obs.Enabled()
	start := reg.Now()
	var corr float64
	for j, f := range phi {
		corr += z[j] * f
	}
	reg.Counter("sparse.smw.corrections").Inc()
	reg.ObserveSince("sparse.smw.correct_ns", start)
	return h0 + corr, nil
}

// poles fills phi with phi_j(i) behind the conditioning guard: every
// 1 - i*mu_j must sit a relative gapTol away from zero, or the read loses
// the accuracy contract. The margin passes through the chaos filter so
// fault-injection tests can force the fallback path.
func (s *SMW) poles(i float64, phi []float64) error {
	minGap := math.Inf(1)
	for j, mu := range s.mu {
		x := i * mu
		minGap = math.Min(minGap, math.Abs(1-x)/(1+math.Abs(x)))
		phi[j] = x / (1 - x)
	}
	minGap = faults.Float64(faults.SiteSMWGuard, minGap)
	if math.IsNaN(minGap) || minGap < s.gapTol {
		obs.Enabled().Counter("sparse.smw.guard_trips").Inc()
		return ErrSMWIllConditioned
	}
	return nil
}

// mulP2T sets p = P2' t, summed over ascending a as row a of P2 updates
// p; t is read at t[idx[a]] (t a base solve) or, with idx nil, at t[a].
func (s *SMW) mulP2T(t []float64, idx []int, p []float64) {
	m := len(s.idx)
	clear(p[:m])
	for a := 0; a < m; a++ {
		ta := t[a]
		if idx != nil {
			ta = t[idx[a]]
		}
		for j, v := range s.p2[a*m : (a+1)*m] {
			p[j] += ta * v
		}
	}
}

// mulP2 sets v = P2 u, four rows at a time, each row summed over
// ascending j as it would be alone.
func (s *SMW) mulP2(u, v []float64) {
	m := len(u)
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
		v[a], v[a+1], v[a+2], v[a+3] = v0, v1, v2, v3
	}
	for ; a < m; a++ {
		var x float64
		for j, uj := range u {
			x += s.p2[a*m+j] * uj
		}
		v[a] = x
	}
}
