package thermal

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// ReusableSystem owns one sparse Cholesky factorization of the base
// matrix G and reads the whole current family (G - i*D) theta = rhs in
// pole form (sparse.SMW, rank m = 2 per TEC) instead of refactoring. A
// load b + c*1_U prepared once by Form (1_U is 1 on D's support) reads
// in O(m^2) plus O(m) per row (LoadAtCurrent), an entry h_kl in O(m)
// from weights memoized for the last (k, l) (EntryAtCurrent), and any
// other right-hand side pays a base solve and an O(m^2 + n*m)
// correction (SolveAtCurrent).
//
// The SMW eigendata also yields the spectral runaway limit
// lambda = 1/mu_max for free, so positive definiteness of G - i*D is a
// scalar comparison (PD) rather than a factorization attempt.
//
// Near the limit the capacitance matrix approaches singularity, so
// within a relative window around lambda every read defers to an
// authoritative direct factorization of the shifted matrix (memoized
// for repeated solves at one current). Should the conditioning guard
// trip outside that window — or under fault injection — the read
// falls back to the same memoized direct factorization.
//
// A direct-only system (NewDirectSystem) has no SMW data: every read
// takes that memoized factorization, and PD is a factorization
// attempt.
//
// All methods are safe for concurrent use.
type ReusableSystem struct {
	g    *sparse.CSR
	d    []float64
	perm []int // the ordering of every factorization of G - i*D
	// base and smw are nil in a direct-only system.
	base *Factorization
	smw  *sparse.SMW
	// lambda is the spectral runaway limit 1/mu_max (+Inf when the
	// update has no positive direction); window is the relative
	// near-limit band handled by direct factorization.
	lambda float64
	window float64
	// mu guards shifted, the last direct factorization of G - i*D,
	// which every direct read shares.
	mu      sync.Mutex
	shifted *shiftedFactor
	// pair memoizes the last (k, l) EntryAtCurrent read: an h_kl sweep
	// repeats it at every current.
	pair atomic.Pointer[pairWeights]
}

// pairWeights is one memoized entry: h0 = (G^{-1})_kl and the weights z
// of sparse.SMW.Pair, never modified once stored.
type pairWeights struct {
	k, l int
	h0   float64
	z    []float64
}

// shiftedFactor is one direct factorization of G - i*D, made once by
// the first caller at i (err keeps a not-PD outcome without
// refactoring).
type shiftedFactor struct {
	i    float64
	once sync.Once
	f    *Factorization
	err  error
}

// reusableWindow is the relative band around the spectral limit where
// solves use a direct factorization: the spectral lambda and the
// Cholesky-breakdown boundary agree only to roughly eps*kappa(G), so
// within the band the factorization attempt is the authority on
// ErrNotPD, and the near-singular capacitance matrix could not hold the
// SMW accuracy contract anyway.
const reusableWindow = 1e-6

// NewReusableSystem factors G once (under perm when non-nil, else its
// minimum-degree ordering) and precomputes the SMW correction data for
// the diagonal update d. It returns ErrNotPD when G itself is not
// positive definite; an SMW setup failure (degenerate update) is
// returned as-is, and callers may fall back to NewDirectSystem. In a
// recorded trace the factorization is a "thermal.factor" span under
// ctx's span, annotated with the order n and the entries of L, beside
// the SMW setup's own spans.
func NewReusableSystem(ctx context.Context, g *sparse.CSR, d []float64, perm []int) (*ReusableSystem, error) {
	if g.Rows() != len(d) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: diagonal update length %d, want %d", len(d), g.Rows())
	}
	r := obs.Enabled()
	var sp obs.Span
	if r.Tracing() {
		_, sp = r.StartSpanCtx(ctx, "thermal.factor")
	}
	base, err := Factor(g, perm)
	if err == nil {
		sp.AnnotateInt("n", int64(g.Rows()))
		sp.AnnotateInt("nnz_l", int64(base.chol.NNZ()))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	smw, err := sparse.NewSMWUnits(ctx, d, base.SolveUnits)
	if err != nil {
		return nil, err
	}
	rs := &ReusableSystem{
		g:      g,
		d:      d,
		perm:   base.chol.Perm(),
		base:   base,
		smw:    smw,
		lambda: smw.Lambda(),
		window: reusableWindow,
	}
	if r != nil {
		r.Counter("thermal.reusable.setups").Inc()
	}
	return rs, nil
}

// NewDirectSystem returns a direct-only ReusableSystem: every read
// takes the memoized direct factorization of G - i*D under perm, G's
// fill-reducing ordering, and PD is a factorization attempt. It
// factors nothing up front and counts no setup. Lambda, Rank and Form
// belong to the SMW regime and must not be called on it.
func NewDirectSystem(g *sparse.CSR, d []float64, perm []int) *ReusableSystem {
	return &ReusableSystem{g: g, d: d, perm: perm}
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
// predicate behind the runaway bisection. A direct-only system
// attempts the factorization, as the paper does (Section V.C.1).
func (rs *ReusableSystem) PD(i float64) bool {
	if rs.smw == nil {
		sf, _ := rs.factorAt(i)
		return sf.err == nil
	}
	return i < rs.lambda
}

// Form prepares the load b for LoadAtCurrent with one base solve. When
// a registry is installed it also checks that solve: the normwise
// backward error of y = G^{-1} b, in units of machine epsilon, goes to
// the "thermal.reusable.backward_error_eps" histogram and onto ctx's
// span.
func (rs *ReusableSystem) Form(ctx context.Context, b []float64) (sparse.PoleForm, error) {
	y, err := rs.base.Solve(b)
	if err != nil {
		return sparse.PoleForm{}, err
	}
	if r := obs.Enabled(); r != nil {
		eps := sparse.BackwardError(rs.g, y, b) / epsilon
		r.Histogram("thermal.reusable.backward_error_eps").Observe(uint64(math.Ceil(eps)))
		obs.SpanFromContext(ctx).AnnotateFloat("backward_error_eps", eps)
	}
	return rs.smw.Form(y), nil
}

// epsilon is the machine epsilon of float64, 2^-52.
const epsilon = 0x1p-52

// LoadAtCurrent writes rows of the solution of (G - i*D) theta =
// b + c*1_U into out, for b from Form, as sparse.SMW.Read does; its SMW
// regime makes no band solve. The direct regimes solve rhs(), which must
// build b + c*1_U.
func (rs *ReusableSystem) LoadAtCurrent(ctx context.Context, i, c float64, b sparse.PoleForm,
	rhs func() []float64, rows []int, out []float64) error {
	_, err := solveAt(ctx, rs, i, rhs,
		func(obs.Span) ([]float64, error) { return out, rs.smw.Read(i, c, b, rows, out) },
		func(x []float64) []float64 {
			if rows == nil {
				return append(out[:0], x...)
			}
			for r, k := range rows {
				out[r] = x[k]
			}
			return out
		})
	return err
}

// SolveAtCurrent solves (G - i*D) theta = rhs for any right-hand side:
// one base solve and the SMW correction, or a memoized direct
// factorization of the shifted matrix inside the near-limit window and
// when the conditioning guard trips. Currents at or beyond the runaway
// limit return ErrNotPD, matching the direct path.
func (rs *ReusableSystem) SolveAtCurrent(ctx context.Context, i float64, rhs []float64) ([]float64, error) {
	if len(rhs) != len(rs.d) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: rhs length %d, want %d", len(rhs), len(rs.d))
	}
	return solveAt(ctx, rs, i, func() []float64 { return rhs },
		func(obs.Span) ([]float64, error) {
			y, err := rs.base.Solve(rhs)
			if err != nil {
				return nil, err
			}
			return y, rs.smw.Correct(i, y)
		},
		func(x []float64) []float64 { return x })
}

// EntryAtCurrent returns entry k of the solution of (G - i*D) theta =
// e_l with SolveAtCurrent's regimes, counters and errors, and its bits
// except in the SMW regime. That reads (G^{-1})_kl and the pair weights
// memoized for the last (k, l): a sweep at one (k, l) costs one base
// solve and O(m^2), then O(m) per current. A node outside [0, n) is a
// tecerr.CodeInvalidInput error.
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
		func(sp obs.Span) (float64, error) {
			p, memo, err := rs.pairAt(k, l)
			sp.Annotate("pair_memo", strconv.FormatBool(memo))
			if err != nil {
				return 0, err
			}
			return rs.smw.Entry(i, p.h0, p.z)
		},
		func(x []float64) float64 { return x[k] })
}

// solveAt is the regime decision behind every read, with its counters
// and span; T is what the caller reads of the solution. fast answers
// from the base factorization in pole form (with no pole at i = 0 or
// rank 0), returning the guard's error. read picks the answer from the
// solution of the direct factorization of G - i*D, used by a
// direct-only system, in the near-limit window and when the
// conditioning guard trips; rhs builds that solve's right-hand side.
func solveAt[T any](ctx context.Context, rs *ReusableSystem, i float64, rhs func() []float64,
	fast func(sp obs.Span) (T, error), read func(x []float64) T) (T, error) {
	var zero T
	if !num.IsFinite(i) {
		return zero, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.reusable",
			"thermal: non-finite supply current %g", i)
	}
	r := obs.Enabled()
	var sp obs.Span
	if r.Tracing() {
		// The per-solve span is the trace's record of WHICH regime this
		// solve took; it exists only in a recorded trace, so a
		// metrics-only registry pays nothing per solve. Annotate is a
		// no-op on the zero Span, so the regime paths below annotate
		// unconditionally.
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
	// A direct-only system has no regime to decide. With rank 0 or
	// i = 0, lambda is +Inf or above i: neither limit case holds.
	switch {
	case rs.smw == nil:
		sp.Annotate("regime", "direct")
		return direct()
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
	v, err := fast(sp)
	if err == nil {
		if r != nil {
			r.Counter("thermal.reusable.smw_hits").Inc()
		}
		sp.Annotate("regime", "smw")
		return v, nil
	}
	if rs.smw.Rank() == 0 || num.IsZero(i) || errors.Is(err, tecerr.ErrInvalidInput) {
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

// pairAt returns the entry data of (k, l) from the memo, or computes it
// with one base solve G^{-1} e_l and stores it (memo false).
func (rs *ReusableSystem) pairAt(k, l int) (p *pairWeights, memo bool, err error) {
	if p = rs.pair.Load(); p != nil && p.k == k && p.l == l {
		return p, true, nil
	}
	e := make([]float64, len(rs.d))
	e[l] = 1
	y, err := rs.base.Solve(e)
	if err != nil {
		return nil, false, err
	}
	z, err := rs.smw.Pair(k, y)
	if err != nil {
		return nil, false, err
	}
	p = &pairWeights{k: k, l: l, h0: y[k], z: z}
	rs.pair.Store(p)
	return p, false, nil
}

// solveDirect solves with the direct factorization of G - i*D from
// factorAt. It stays out of solveAt's direct closure so that the
// closure is small enough to inline and an SMW read never builds it.
func (rs *ReusableSystem) solveDirect(i float64, rhs []float64, sp obs.Span) ([]float64, error) {
	sf, memo := rs.factorAt(i)
	sp.Annotate("near_memo", strconv.FormatBool(memo))
	if sf.err != nil {
		return nil, sf.err
	}
	return sf.f.Solve(rhs)
}

// factorAt returns the direct factorization of G - i*D under perm:
// deterministic, authoritative on ErrNotPD, and memoized (memo true)
// for repeated reads at one current, as the h_kl column sweeps make.
// Concurrent first callers at one current share one factorization;
// callers at different currents do not wait for each other.
func (rs *ReusableSystem) factorAt(i float64) (sf *shiftedFactor, memo bool) {
	rs.mu.Lock()
	sf = rs.shifted
	memo = sf != nil && num.ExactEqual(sf.i, i)
	if !memo {
		sf = &shiftedFactor{i: i}
		rs.shifted = sf
	}
	rs.mu.Unlock()
	sf.once.Do(func() { sf.f, sf.err = Factor(rs.g.AddScaledDiag(-i, rs.d), rs.perm) })
	return sf, memo
}
