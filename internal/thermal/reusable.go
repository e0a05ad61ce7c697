package thermal

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"

	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// ReusableSystem owns one banded Cholesky factorization of the base
// matrix G and solves the whole current family (G - i*D) theta = rhs
// from it: per current it applies a Sherman-Morrison-Woodbury
// correction against the rank-m capacitance matrix (sparse.SMW, m = 2
// per TEC) instead of refactoring. A full field (SolveAtCurrent) costs
// one base solve and the correction, O(n*bw + n*m): the path of the
// current optimizer and the service's solves. One entry h_kl
// (EntryAtCurrent) reads the memoized base column G^{-1} e_l of the
// last l and corrects only entry k, O(m^2) per current after the
// column's first base solve: the path of the h_kl sweeps.
//
// The SMW eigendata also yields the spectral runaway limit
// lambda = 1/mu_max for free, so positive definiteness of G - i*D is a
// scalar comparison (PD) rather than a factorization attempt.
//
// Near the limit the capacitance matrix approaches singularity, so
// within a relative window around lambda SolveAtCurrent defers to an
// authoritative direct factorization of the shifted matrix (memoized
// for repeated solves at one current). Should the conditioning guard
// trip outside that window — or under fault injection — the solve
// falls back to the same memoized direct factorization.
//
// All methods are safe for concurrent use.
type ReusableSystem struct {
	g    *sparse.CSR
	d    []float64
	perm []int
	base *Factorization
	smw  *sparse.SMW
	// lambda is the spectral runaway limit 1/mu_max (+Inf when the
	// update has no positive direction); window is the relative
	// near-limit band handled by direct factorization.
	lambda float64
	window float64
	// near memoizes the last direct factorization of G - i*D, shared by
	// the near-limit window and the guard-trip fallback.
	near atomic.Pointer[nearFactor]
	// unit memoizes the base solve G^{-1} e_l of the last column l
	// EntryAtCurrent read: an h_kl sweep repeats it at every current.
	unit atomic.Pointer[unitColumn]
}

// unitColumn is one memoized base solve x = G^{-1} e_l, never modified
// once stored.
type unitColumn struct {
	l int
	x []float64
}

// nearFactor is one memoized direct factorization of G - i*D (err keeps
// a not-PD outcome without refactoring).
type nearFactor struct {
	i   float64
	f   *Factorization
	err error
}

// reusableWindow is the relative band around the spectral limit where
// solves use a direct factorization: the spectral lambda and the
// Cholesky-breakdown boundary agree only to roughly eps*kappa(G), so
// within the band the factorization attempt is the authority on
// ErrNotPD, and the near-singular capacitance matrix could not hold the
// SMW accuracy contract anyway.
const reusableWindow = 1e-6

// NewReusableSystem factors G once (reusing perm as the RCM ordering
// when non-nil) and precomputes the SMW correction data for the
// diagonal update d. It returns ErrNotPD when G itself is not positive
// definite; an SMW setup failure (degenerate update) is returned as-is,
// and callers may fall back to per-current direct factorization.
func NewReusableSystem(g *sparse.CSR, d []float64, perm []int) (*ReusableSystem, error) {
	if g.Rows() != len(d) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: diagonal update length %d, want %d", len(d), g.Rows())
	}
	base, err := Factor(g, perm)
	if err != nil {
		return nil, err
	}
	smw, err := sparse.NewSMWUnits(d, base.SolveUnits)
	if err != nil {
		return nil, err
	}
	rs := &ReusableSystem{
		g:      g,
		d:      d,
		perm:   base.perm,
		base:   base,
		smw:    smw,
		lambda: smw.Lambda(),
		window: reusableWindow,
	}
	if r := obs.Enabled(); r != nil {
		r.Counter("thermal.reusable.setups").Inc()
	}
	return rs, nil
}

// Lambda returns the spectral runaway limit 1/mu_max of the system
// (+Inf when it cannot run away).
func (rs *ReusableSystem) Lambda() float64 { return rs.lambda }

// Rank returns the SMW update rank (2 per deployed TEC).
func (rs *ReusableSystem) Rank() int { return rs.smw.Rank() }

// PD reports whether G - i*D is positive definite, decided spectrally
// in O(1): i < lambda. The spectral limit and the Cholesky-breakdown
// boundary agree to roughly eps*kappa(G) relative — far tighter than
// any physically meaningful probe — which makes PD the constant-time
// predicate behind the runaway bisection.
func (rs *ReusableSystem) PD(i float64) bool { return i < rs.lambda }

// SolveAtCurrent solves (G - i*D) theta = rhs: by the SMW correction
// of the base factorization, or by a memoized direct factorization of
// the shifted matrix inside the near-limit window and when the
// conditioning guard trips. Currents at or beyond the runaway limit
// return ErrNotPD, matching the direct path.
func (rs *ReusableSystem) SolveAtCurrent(ctx context.Context, i float64, rhs []float64) ([]float64, error) {
	if len(rhs) != len(rs.d) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: rhs length %d, want %d", len(rhs), len(rs.d))
	}
	return solveAt(ctx, rs, i, func() []float64 { return rhs },
		func(_ obs.Span, smw bool) ([]float64, error) {
			y, err := rs.base.Solve(rhs)
			if err != nil || !smw {
				return y, err
			}
			return y, rs.smw.Correct(i, y)
		},
		func(x []float64) []float64 { return x })
}

// EntryAtCurrent returns entry k of the solution of
// (G - i*D) theta = e_l, the unit vector at node l: bitwise
// SolveAtCurrent(ctx, i, e_l)[k], with the same regimes, counters and
// errors. Its SMW regime reads the memoized base column G^{-1} e_l and
// corrects only entry k, so a sweep over currents at one (k, l) costs
// one base solve and then O(m^2) per current. A node outside [0, n) is
// a tecerr.CodeInvalidInput error.
func (rs *ReusableSystem) EntryAtCurrent(ctx context.Context, i float64, k, l int) (float64, error) {
	if n := len(rs.d); k < 0 || k >= n || l < 0 || l >= n {
		return 0, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: entry (%d, %d) out of range %d", k, l, n)
	}
	return solveAt(ctx, rs, i,
		func() []float64 {
			e := make([]float64, len(rs.d))
			e[l] = 1
			return e
		},
		func(sp obs.Span, smw bool) (float64, error) {
			y, memo, err := rs.baseColumn(l)
			sp.Annotate("unit_memo", strconv.FormatBool(memo))
			if err != nil {
				return 0, err
			}
			if !smw {
				return y[k], nil
			}
			return rs.smw.CorrectEntry(i, y, k)
		},
		func(x []float64) float64 { return x[k] })
}

// solveAt is the regime decision behind SolveAtCurrent and
// EntryAtCurrent, with their counters and span; T is what the caller
// reads of the solution. fast answers from the base factorization: the
// base solve alone when smw is false (i = 0, or rank 0), with the SMW
// correction otherwise, returning the correction's error. read picks
// the answer from the solution of the direct factorization of G - i*D,
// used in the near-limit window and when the conditioning guard trips;
// rhs builds that solve's right-hand side.
func solveAt[T any](ctx context.Context, rs *ReusableSystem, i float64, rhs func() []float64,
	fast func(sp obs.Span, smw bool) (T, error), read func(x []float64) T) (T, error) {
	var zero T
	if !num.IsFinite(i) {
		return zero, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: non-finite supply current %g", i)
	}
	r := obs.Enabled()
	var sp obs.Span
	if r.FlightOn() {
		// The per-solve span is the flight recorder's record of WHICH
		// regime this solve took; it exists only in flight mode so flat
		// traces stay byte-compatible. Annotate is a no-op on the zero
		// Span, so the regime paths below annotate unconditionally.
		_, sp = r.StartSpanCtx(ctx, "thermal.reusable.solve")
		sp.AnnotateFloat("current", i)
		defer sp.End()
	}
	direct := func() (T, error) {
		x, err := rs.solveDirect(i, rhs(), sp)
		if err != nil {
			return zero, err
		}
		return read(x), nil
	}
	smw := rs.smw.Rank() != 0 && !num.IsZero(i)
	// With rank 0 or i = 0, lambda is +Inf or above i: neither case
	// below holds.
	switch {
	case i >= rs.lambda*(1+rs.window):
		// Unambiguously beyond the limit: indefinite, like a failed
		// factorization attempt, without paying for one.
		if r != nil {
			r.Counter("thermal.reusable.beyond_limit").Inc()
		}
		sp.Annotate("regime", "beyond-limit")
		return zero, ErrNotPD
	case i >= rs.lambda*(1-rs.window):
		if r != nil {
			r.Counter("thermal.reusable.near_limit").Inc()
		}
		sp.Annotate("regime", "direct")
		return direct()
	}
	v, err := fast(sp, smw)
	if err == nil {
		if r != nil {
			r.Counter("thermal.reusable.smw_hits").Inc()
		}
		sp.Annotate("regime", "smw")
		return v, nil
	}
	if !smw || errors.Is(err, tecerr.ErrInvalidInput) {
		return zero, err
	}
	// Conditioning guard tripped (organically outside the near-limit
	// window only for pathological spectra, or under fault injection):
	// the direct factorization gives the answer the direct path would.
	if r != nil {
		r.Counter("thermal.reusable.fallbacks").Inc()
	}
	sp.Annotate("regime", "fallback")
	sp.Annotate("guard_reason", tecerr.CodeOf(err).String())
	return direct()
}

// baseColumn returns the base solve G^{-1} e_l from the memo, solving
// and storing it when the memo holds another column (memo false). The
// slice is shared: callers must not modify it.
func (rs *ReusableSystem) baseColumn(l int) (x []float64, memo bool, err error) {
	if u := rs.unit.Load(); u != nil && u.l == l {
		return u.x, true, nil
	}
	e := make([]float64, len(rs.d))
	e[l] = 1
	if x, err = rs.base.Solve(e); err != nil {
		return nil, false, err
	}
	rs.unit.Store(&unitColumn{l: l, x: x})
	return x, false, nil
}

// solveDirect solves with a direct factorization of G - i*D in the
// System's RCM ordering: deterministic, authoritative on ErrNotPD, and
// memoized across repeated solves at one current (the h_kl column
// sweeps solve many right-hand sides at the same i).
func (rs *ReusableSystem) solveDirect(i float64, rhs []float64, sp obs.Span) ([]float64, error) {
	nf := rs.near.Load()
	memo := nf != nil && num.ExactEqual(nf.i, i)
	sp.Annotate("near_memo", strconv.FormatBool(memo))
	if !memo {
		f, err := Factor(rs.g.AddScaledDiag(-i, rs.d), rs.perm)
		nf = &nearFactor{i: i, f: f, err: err}
		rs.near.Store(nf)
	}
	if nf.err != nil {
		return nil, nf.err
	}
	return nf.f.Solve(rhs)
}
