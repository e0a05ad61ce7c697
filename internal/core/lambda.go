package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"tecopt/internal/engine"
	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/optimize"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// Thermal-runaway analysis (Section V.C.1).
//
// Theorem 1 defines lambda_m = min{ theta' G theta : theta' D theta = 1 }:
// G - i*D is positive definite for 0 <= i < lambda_m and loses positive
// definiteness beyond it. Theorem 2 shows every entry of
// H(i) = (G - i*D)^{-1} diverges to +infinity as i -> lambda_m^-, i.e.
// the whole chip overheats without bound: thermal runaway. The paper
// computes lambda_m by binary search with Cholesky positive-definiteness
// tests, which is exactly what RunawayLimit does (each probe one sparse
// Cholesky factorization on a direct-only solver, or with the SMW fast
// path up the spectral comparison).

// ErrNoRunawayLimit indicates an operation that needs a finite lambda_m
// (such as RunawayMode) was asked about a system that has none because D
// has no positive diagonal entry — G - i*D stays positive definite for
// every i >= 0. This happens only for systems without TEC devices.
//
// Note the contract: RunawayLimit does NOT return this error. "No
// runaway limit" is a legitimate answer for it — lambda_m = +Inf — not
// a failure, so it reports (+Inf, nil) and callers that care can ask
// HasRunawayLimit. Only operations that are meaningless without a
// finite limit return the sentinel.
var ErrNoRunawayLimit error = tecerr.New(tecerr.CodeInvalidInput, "core.runaway",
	"core: system has no runaway limit (no TEC devices)")

// HasRunawayLimit reports whether the system can run away at all: true
// iff D has a positive diagonal entry, i.e. at least one TEC device is
// deployed, so G - i*D eventually loses positive definiteness.
func (s *System) HasRunawayLimit() bool {
	for _, v := range s.d {
		if v > 0 {
			return true
		}
	}
	return false
}

// RunawayOptions tunes the lambda_m search.
type RunawayOptions struct {
	// RelTol is the relative tolerance of the binary search (1e-10).
	RelTol float64
	// Ctx, when non-nil, cancels the search between positive-
	// definiteness probes; a cancelled search returns a
	// tecerr.CodeCancelled error.
	Ctx context.Context
}

func (o RunawayOptions) withDefaults() RunawayOptions {
	if o.RelTol <= 0 {
		o.RelTol = 1e-10
	}
	return o
}

// expired returns ctx's error, or context.DeadlineExceeded once ctx's
// deadline has passed though the timer that cancels ctx has not run
// yet. On a loaded host that timer can fire milliseconds late, and a
// search whose probes take microseconds would otherwise finish, and
// report a result, past its deadline.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// teclint:ignore obsclock compared with the context's deadline, which is on the time package's clock; nothing is timed
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// RunawayLimit computes lambda_m for the system. A system that cannot
// run away — no TEC deployed (see HasRunawayLimit), or a limit beyond
// maxBracketCurrentA (1e6 A) — reports lambda_m = +Inf with a nil
// error; an error is returned only for genuine failures (G not positive
// definite at i = 0, or a broken binary search). The returned value is
// meaningful exactly when the error is nil.
func (s *System) RunawayLimit(opt RunawayOptions) (float64, error) {
	opt = opt.withDefaults()
	if !s.HasRunawayLimit() {
		return math.Inf(1), nil
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r := obs.Enabled()
	var probes int64
	if r != nil {
		var sp obs.Span
		ctx, sp = r.StartSpanCtx(ctx, "core.runaway_limit")
		defer sp.End()
		defer func() {
			// The probe count is the search's iteration count: geometric
			// bracketing plus the binary-search PD tests. Registered after
			// sp.End's defer, so (LIFO) the annotation lands before the
			// span is flushed to the trace.
			sp.AnnotateInt("probes", probes)
			r.Counter("core.runaway.searches").Inc()
			r.Counter("core.runaway.probes").Add(uint64(probes))
			r.Gauge("core.runaway.last_probes").Set(probes)
		}()
	}
	// The probes cannot return an error through the boolean predicate, so
	// cancellation is latched here and re-checked after every search stage.
	// With the SMW fast path up, each probe is the O(1) spectral
	// comparison i < 1/mu_max instead of a factorization attempt — the
	// bisection converges to the same limit (the spectral and
	// Cholesky-breakdown boundaries agree far inside RelTol's bracket)
	// for the cost of none of the probes. A direct-only solver attempts
	// the factorization.
	rs := s.reusable(ctx)
	tracing := r.Tracing()
	var ctxErr error
	pd := func(i float64) bool {
		if ctxErr != nil {
			return false
		}
		if err := expired(ctx); err != nil {
			ctxErr = tecerr.Cancelled("core.runaway", err)
			return false
		}
		probes++
		ok := rs.PD(i)
		if tracing {
			// Per-probe outcomes are the trace's record of the
			// bisection's path; the guard keeps the attribute slice off
			// the heap when no trace is recorded.
			r.EventCtx(ctx, "core.runaway.probe", i,
				obs.Attr{Key: "pd", Value: strconv.FormatBool(ok)})
		}
		return ok
	}
	if !pd(0) {
		if ctxErr != nil {
			return 0, ctxErr
		}
		// G itself must be PD (Lemma 1); anything else is a modeling bug.
		return 0, tecerr.New(tecerr.CodeNotPD, "core.runaway", "core: G is not positive definite at i=0")
	}
	// Geometric bracketing; still positive definite beyond
	// maxBracketCurrentA reads as no limit.
	hi := 1.0
	for pd(hi) {
		hi *= 2
		r.EventCtx(ctx, "core.runaway.bracket_hi", hi)
		if hi > maxBracketCurrentA {
			return math.Inf(1), nil
		}
	}
	if ctxErr != nil {
		return 0, ctxErr
	}
	lo := hi / 2
	if num.ExactEqual(hi, 1.0) {
		lo = 0
	}
	r.EventCtx(ctx, "core.runaway.bracket_lo", lo)
	lambda, err := optimize.BinarySearchBoundary(pd, lo, hi, opt.RelTol, 200)
	if ctxErr != nil {
		return 0, ctxErr
	}
	if err != nil {
		return 0, err
	}
	if r != nil {
		r.FloatGauge("core.runaway.lambda_m").Set(lambda)
		obs.SpanFromContext(ctx).AnnotateFloat("lambda_m", lambda)
	}
	return lambda, nil
}

// RunawayMode returns an approximate runaway mode: the temperature field
// shape that blows up at lambda_m, computed by one inverse-iteration-like
// solve just below the limit. The returned vector is normalized to unit
// maximum entry. Useful for visualizing which region runs away first.
func (s *System) RunawayMode(lambda float64) ([]float64, error) {
	if math.IsInf(lambda, 1) {
		return nil, ErrNoRunawayLimit
	}
	// Slightly inside the limit the solution is dominated by the
	// diverging mode (Theorem 2).
	i := lambda * (1 - 1e-7)
	f, err := s.Factor(i)
	if err != nil {
		// Numerical edge: retreat further from the limit.
		i = lambda * (1 - 1e-5)
		if f, err = s.Factor(i); err != nil {
			return nil, err
		}
	}
	x, err := f.Solve(s.RHS(i))
	if err != nil {
		return nil, err
	}
	mx := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if num.IsZero(mx) {
		return x, nil
	}
	for k := range x {
		x[k] /= mx
	}
	return x, nil
}

// Hkl returns the transfer coefficient h_kl(i) = e_k' (G - i*D)^{-1} e_l,
// the temperature of node k per watt injected at node l (the quantity of
// Figure 6). The fast path reads it in pole form from (G^{-1})_kl and
// pair weights memoized per System for the last (k, l), so a sweep over
// currents at one (k, l) costs one base solve, then O(m) per current;
// the direct regimes solve with e_l. A non-finite or negative i is a
// tecerr.CodeInvalidInput error, as in SolveAt.
func (s *System) Hkl(i float64, k, l int) (float64, error) {
	return s.HklCtx(context.Background(), i, k, l)
}

// HklCtx is Hkl under a trace context: the underlying
// solve's regime span parents to the span carried by ctx (HklSweep
// passes its sweep span).
func (s *System) HklCtx(ctx context.Context, i float64, k, l int) (float64, error) {
	if err := checkCurrent("core.hkl", i); err != nil {
		return 0, err
	}
	if n := s.NumNodes(); k < 0 || k >= n || l < 0 || l >= n {
		return 0, tecerr.Newf(tecerr.CodeInvalidInput, "core.hkl",
			"core: Hkl nodes (%d, %d) out of range %d", k, l, n)
	}
	if r := obs.Enabled(); r != nil {
		r.Counter("core.hkl.evals").Inc()
		defer r.ObserveSince("core.hkl.eval_ns", r.Now())
	}
	return s.reusable(ctx).EntryAtCurrent(ctx, i, k, l)
}

// HklSweep evaluates h_kl over a set of currents, for regenerating
// Figure 6, serially on the caller's goroutine: a point costs O(m) from
// the memoized pair weights, less than a worker pool would add per
// point. Currents at or beyond lambda_m yield +Inf
// entries — the divergence of Theorem 2, detected by the factorization
// losing positive definiteness (thermal.ErrNotPD). Any other failure
// is a genuine numerical or model error, not runaway, and is returned,
// wrapped with its current, instead of being folded into the curve.
//
// Before every point the sweep fires faults.SiteSweepPoint and checks
// ctx; cancellation returns a tecerr.CodeCancelled error. On
// cancellation or any other error the values finished so far come back
// with the error: a prefix of currents, so a caller under a deadline
// can report a partial curve.
func (s *System) HklSweep(ctx context.Context, k, l int, currents []float64) ([]float64, error) {
	r := obs.Enabled()
	if r != nil {
		var sp obs.Span
		ctx, sp = r.StartSpanCtx(ctx, "core.hkl_sweep")
		defer sp.End()
		r.Counter("core.hkl_sweep.sweeps").Inc()
		r.Counter("core.hkl_sweep.points").Add(uint64(len(currents)))
	}
	out := make([]float64, 0, len(currents))
	for _, i := range currents {
		if err := faults.Check(faults.SiteSweepPoint); err != nil {
			return out, err
		}
		if ctx.Err() != nil {
			return out, tecerr.Cancelled("core.hkl_sweep", context.Cause(ctx))
		}
		start := r.Now() // nil-safe, as is ObserveSince
		v, err := s.HklCtx(ctx, i, k, l)
		r.ObserveSince("core.hkl_sweep.point_ns", start)
		if err != nil {
			if !errors.Is(err, thermal.ErrNotPD) {
				return out, fmt.Errorf("core: h_kl sweep at i=%g: %w", i, err)
			}
			v = math.Inf(1) // at/beyond lambda_m: true runaway
		}
		out = append(out, v)
	}
	return out, nil
}

// HColumns solves for the requested columns of H(i) = (G - i*D)^{-1}:
// column l is the full nodal response to one watt injected at node l
// (h_kl for all k at once). The unit solves run on the given worker
// pool and share the System's solver, so a direct regime factors G - i*D
// once for all of them; results are ordered as cols, identical at every
// worker count, and agree with per-column Hkl calls to rounding. The
// current is validated as in Hkl.
func (s *System) HColumns(i float64, cols []int, pool engine.Pool) ([][]float64, error) {
	if err := checkCurrent("core.hkl", i); err != nil {
		return nil, err
	}
	n := s.NumNodes()
	for _, l := range cols {
		if l < 0 || l >= n {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.hkl",
				"core: HColumns node %d out of range %d", l, n)
		}
	}
	rs := s.reusable(context.TODO())
	out := make([][]float64, len(cols))
	err := pool.MapTasksCtx(context.Background(), len(cols), func(tctx context.Context, idx int) error {
		e := make([]float64, n)
		e[cols[idx]] = 1
		x, err := rs.SolveAtCurrent(tctx, i, e)
		if err != nil {
			return err
		}
		out[idx] = x
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
