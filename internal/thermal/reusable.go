package thermal

import (
	"context"
	"errors"
	"math"
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
// correction against the rank-2*#TEC capacitance matrix (sparse.SMW)
// instead of refactoring — the O(n*bw) fast path behind the runaway
// bisection, the current optimizer and the h_kl sweeps.
//
// The SMW eigendata also yields the spectral runaway limit
// lambda = 1/mu_max for free, so positive definiteness of G - i*D is a
// scalar comparison (PD) rather than a factorization attempt.
//
// Near the limit the capacitance matrix approaches singularity, so
// within a relative window around lambda SolveAtCurrent defers to an
// authoritative direct factorization of the shifted matrix (memoized
// for repeated solves at one current); should the conditioning guard
// trip outside that window — or under fault injection — it falls back
// to the SolveGuarded chain, warm-started from the last solution and
// preconditioned with the base matrix's IC(0), and reports the
// degradation in the GuardedReport.
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
	// pre is the base matrix's preconditioner, shared by every guarded
	// fallback (IC(0) of G stays effective for the nearby shifts).
	pre sparse.Preconditioner
	// near memoizes the last in-window direct factorization; warm holds
	// the last solution for CG warm starts.
	near atomic.Pointer[nearFactor]
	warm atomic.Pointer[[]float64]
}

// nearFactor is one memoized direct factorization of G - i*D inside the
// near-limit window (err keeps a not-PD outcome without refactoring).
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
		pre:    sparse.NewBestPreconditioner(g),
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

// SolveAtCurrent solves (G - i*D) theta = rhs. The report says which
// path produced the solution: MethodSMW for the fast path, a direct or
// guarded method otherwise (Degraded with the SMW attempt recorded when
// the conditioning guard forced the fallback). Currents at or beyond
// the runaway limit return ErrNotPD, matching the direct path.
func (rs *ReusableSystem) SolveAtCurrent(ctx context.Context, i float64, rhs []float64) ([]float64, *GuardedReport, error) {
	if !num.IsFinite(i) {
		return nil, nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: non-finite supply current %g", i)
	}
	if len(rhs) != len(rs.d) {
		return nil, nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: rhs length %d, want %d", len(rhs), len(rs.d))
	}
	r := obs.Enabled()
	var sp obs.Span
	if r.FlightOn() {
		// The per-solve span is the flight recorder's record of WHICH
		// regime this solve took; it exists only in flight mode so flat
		// traces stay byte-compatible. Annotate is a no-op on the zero
		// Span, so the regime paths below annotate unconditionally.
		ctx, sp = r.StartSpanCtx(ctx, "thermal.reusable.solve")
		sp.AnnotateFloat("current", i)
		defer sp.End()
	}
	if rs.smw.Rank() == 0 || num.IsZero(i) {
		x, err := rs.base.Solve(rhs)
		if err != nil {
			return nil, nil, err
		}
		if r != nil {
			r.Counter("thermal.reusable.smw_hits").Inc()
		}
		sp.Annotate("regime", "smw")
		return x, &GuardedReport{Method: MethodSMW}, nil
	}
	if !math.IsInf(rs.lambda, 1) {
		switch {
		case i >= rs.lambda*(1+rs.window):
			// Unambiguously beyond the limit: indefinite, like a failed
			// factorization attempt, without paying for one.
			if r != nil {
				r.Counter("thermal.reusable.beyond_limit").Inc()
			}
			sp.Annotate("regime", "beyond-limit")
			return nil, nil, ErrNotPD
		case i >= rs.lambda*(1-rs.window):
			return rs.solveNear(i, rhs, sp)
		}
	}

	y, err := rs.base.Solve(rhs)
	if err != nil {
		return nil, nil, err
	}
	cerr := rs.smw.Correct(i, y)
	if cerr == nil {
		if r != nil {
			r.Counter("thermal.reusable.smw_hits").Inc()
		}
		sp.Annotate("regime", "smw")
		warm := make([]float64, len(y))
		copy(warm, y)
		rs.warm.Store(&warm)
		return y, &GuardedReport{Method: MethodSMW}, nil
	}
	if errors.Is(cerr, tecerr.ErrInvalidInput) {
		return nil, nil, cerr
	}
	// Conditioning guard tripped (organically outside the near-limit
	// window only for pathological spectra, or under fault injection):
	// escalate through the guarded chain with the warm start and the
	// shared base preconditioner, and record the degradation.
	if r != nil {
		r.Counter("thermal.reusable.fallbacks").Inc()
	}
	sp.Annotate("regime", "guarded")
	sp.Annotate("guard_reason", tecerr.CodeOf(cerr).String())
	opts := GuardedOptions{Precond: rs.pre}
	if warm := rs.warm.Load(); warm != nil {
		opts.X0 = *warm
		if r != nil {
			r.Counter("thermal.reusable.warm_start_solves").Inc()
		}
	}
	sp.Annotate("warm_start", strconv.FormatBool(opts.X0 != nil))
	x, rep, err := SolveGuarded(ctx, rs.shifted(i), rhs, opts)
	if err != nil {
		return nil, nil, err
	}
	rep.Degraded = true
	rep.Attempts = append([]GuardedAttempt{{Method: MethodSMW, Err: cerr}}, rep.Attempts...)
	if r != nil && rep.Stats.Iterative {
		r.Counter("thermal.reusable.warm_start_iterations").Add(uint64(rep.Stats.CGIterations))
	}
	warm := make([]float64, len(x))
	copy(warm, x)
	rs.warm.Store(&warm)
	return x, rep, nil
}

// shifted materializes G - i*D.
func (rs *ReusableSystem) shifted(i float64) *sparse.CSR {
	return rs.g.AddScaledDiag(-i, rs.d)
}

// solveNear handles currents inside the near-limit window with a
// memoized direct factorization: deterministic, authoritative on
// ErrNotPD, and amortized across repeated solves at one current (the
// h_kl column sweeps solve many right-hand sides at the same i).
func (rs *ReusableSystem) solveNear(i float64, rhs []float64, sp obs.Span) ([]float64, *GuardedReport, error) {
	if r := obs.Enabled(); r != nil {
		r.Counter("thermal.reusable.near_limit").Inc()
	}
	sp.Annotate("regime", "direct")
	nf := rs.near.Load()
	memo := nf != nil && num.ExactEqual(nf.i, i)
	sp.Annotate("near_memo", strconv.FormatBool(memo))
	if !memo {
		f, err := Factor(rs.shifted(i), rs.perm)
		nf = &nearFactor{i: i, f: f, err: err}
		rs.near.Store(nf)
	}
	if nf.err != nil {
		return nil, nil, nf.err
	}
	x, err := nf.f.Solve(rhs)
	if err != nil {
		return nil, nil, err
	}
	return x, &GuardedReport{Method: MethodBandCholesky}, nil
}
