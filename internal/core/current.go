package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"tecopt/internal/obs"
	"tecopt/internal/optimize"
	"tecopt/internal/tecerr"
)

// Supply-current setting (Problem 2, Section V.C): choose the single
// shared current i in [0, lambda_m) minimizing the peak silicon tile
// temperature. Under Conjecture 1 the objective max_k theta_k(i) is a
// maximum of convex functions, hence convex; the paper solves it with
// gradient descent, and we provide both that and a golden-section variant
// (derivative-free, robust at the kinks of the max).

// CurrentMethod selects the optimizer.
type CurrentMethod int

const (
	// CurrentGolden uses golden-section search (default).
	CurrentGolden CurrentMethod = iota
	// CurrentGradient uses projected gradient descent with backtracking
	// (the paper's stated method).
	CurrentGradient
	// CurrentBrent uses Brent's method.
	CurrentBrent
)

// ParseCurrentMethod maps an optimizer name to its CurrentMethod:
// "golden" (or "", the default), "gradient" or "brent". Any other name
// is a tecerr.CodeInvalidInput error.
func ParseCurrentMethod(name string) (CurrentMethod, error) {
	switch name {
	case "", "golden":
		return CurrentGolden, nil
	case "gradient":
		return CurrentGradient, nil
	case "brent":
		return CurrentBrent, nil
	}
	return 0, tecerr.Newf(tecerr.CodeInvalidInput, "core.optimize_current",
		"core: unknown current method %q (want golden, gradient or brent)", name)
}

// CurrentOptions tunes the current optimization.
type CurrentOptions struct {
	Method CurrentMethod
	// Tol is the absolute current tolerance in amperes (default 1e-4).
	Tol float64
	// Ctx, when non-nil, cancels the optimization between objective
	// evaluations; it also flows into the runaway-limit search. A
	// cancelled run returns a tecerr.CodeCancelled error.
	Ctx context.Context
}

func (o CurrentOptions) withDefaults() CurrentOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	return o
}

// safetyMargin keeps the current search away from lambda_m: the upper
// bound of the search is lambda_m*(1-safetyMargin).
const safetyMargin = 1e-3

// CurrentResult reports the optimized operating point.
type CurrentResult struct {
	// IOpt is the optimal shared supply current (A).
	IOpt float64
	// PeakK is the minimized peak silicon temperature (kelvin).
	PeakK float64
	// PeakTile is the hottest tile at IOpt.
	PeakTile int
	// Theta is the full nodal field at IOpt.
	Theta []float64
	// TECPowerW is the array's electrical input power at IOpt (Eq. 3).
	TECPowerW float64
	// LambdaM is the runaway limit used to bound the search (may be
	// +Inf when unreachable).
	LambdaM float64
	// Evaluations counts objective evaluations (solves).
	Evaluations int
}

// maxBracketCurrentA caps the ascending-objective bracket expansion of
// OptimizeCurrent when lambda_m is unreachable, and RunawayLimit's
// geometric bracketing, beyond which lambda_m reads +Inf. No physical
// device survives a mega-ampere, so failing to bracket by then means
// the model is broken, not that the search should silently truncate.
const maxBracketCurrentA = 1e6

// ErrBracketExhausted reports that OptimizeCurrent's bracket expansion
// hit its current cap without ever seeing the objective rise back above
// its i = 0 value, so no valid search interval exists. A physically
// meaningful model cannot do this — Joule heating (r i^2) eventually
// dominates — so it signals a broken device parameterization (for
// example a zero-resistance TEC) rather than an optimizer failure.
var ErrBracketExhausted error = tecerr.New(tecerr.CodeInvalidInput, "core.optimize_current",
	"core: current bracket expansion found no ascending objective")

// expandBracket doubles hi from start until objective(hi) >= f0, giving
// golden section an interval whose minimum is interior. It fails with
// ErrBracketExhausted instead of returning a truncated range when the
// objective is still descending at the max current.
func expandBracket(ctx context.Context, objective func(float64) float64, f0, start, max float64) (float64, error) {
	r := obs.Enabled()
	hi := start
	for objective(hi) < f0 {
		if hi >= max {
			return 0, fmt.Errorf("%w: objective still below its i=0 value %g at %g A", ErrBracketExhausted, f0, hi)
		}
		hi *= 2
		if r != nil {
			r.Counter("core.optimize_current.bracket_expansions").Inc()
			r.EventCtx(ctx, "core.optimize_current.bracket_hi", hi)
		}
	}
	return hi, nil
}

// OptimizeCurrent solves Problem 2 for the system's deployment. With no
// TECs deployed it degenerates to the passive solve at i = 0.
func (s *System) OptimizeCurrent(opt CurrentOptions) (*CurrentResult, error) {
	opt = opt.withDefaults()
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r := obs.Enabled()
	evals := 0
	if r != nil {
		var sp obs.Span
		ctx, sp = r.StartSpanCtx(ctx, "core.optimize_current")
		defer sp.End()
		defer func() {
			// Registered after sp.End's defer: (LIFO) the annotation
			// lands before the span is flushed to the trace.
			sp.AnnotateInt("evaluations", int64(evals))
			r.Counter("core.optimize_current.runs").Inc()
			r.Counter("core.optimize_current.evaluations").Add(uint64(evals))
			r.Gauge("core.optimize_current.last_evaluations").Set(int64(evals))
		}()
	}
	if s.Array.Count() == 0 {
		peak, tile, theta, err := s.PeakAtCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		evals = 1
		return &CurrentResult{
			IOpt: 0, PeakK: peak, PeakTile: tile, Theta: theta,
			LambdaM: math.Inf(1), Evaluations: 1,
		}, nil
	}

	// The spanned ctx (not the raw opt.Ctx) flows into the runaway
	// search so its span nests under this optimization's.
	lambda, err := s.RunawayLimit(RunawayOptions{Ctx: ctx})
	if err != nil {
		return nil, err
	}

	// Cancellation is latched: the scalar optimizers see +Inf and back
	// off, and the latched error is returned after they unwind.
	var ctxErr error
	sil := make([]float64, s.PN.NumTiles())
	objective := func(i float64) float64 {
		if ctxErr != nil {
			return math.Inf(1)
		}
		if err := expired(ctx); err != nil {
			ctxErr = tecerr.Cancelled("core.optimize_current", err)
			return math.Inf(1)
		}
		evals++
		if err := s.readLoad(ctx, i, s.PN.SilNode, sil); err != nil {
			// At/beyond runaway: treat as +Inf so the optimizer backs off.
			return math.Inf(1)
		}
		return slices.Max(sil)
	}

	// Upper search bound: inside the runaway limit, or found by bracket
	// expansion when lambda_m is unreachable (the convex objective must
	// eventually increase with i as Joule heating dominates).
	var hi float64
	if math.IsInf(lambda, 1) {
		hi, err = expandBracket(ctx, objective, objective(0), 1.0, maxBracketCurrentA)
		if ctxErr != nil {
			return nil, ctxErr
		}
		if err != nil {
			return nil, err
		}
	} else {
		hi = lambda * (1 - safetyMargin)
	}
	if hi <= 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.optimize_current",
			"core: empty feasible current range (lambda_m = %g)", lambda)
	}

	var res optimize.Result
	switch opt.Method {
	case CurrentGolden:
		res, err = optimize.GoldenSection(objective, 0, hi, opt.Tol, 300)
	case CurrentBrent:
		res, err = optimize.Brent(objective, 0, hi, opt.Tol/math.Max(hi, 1), 300)
	case CurrentGradient:
		res, err = optimize.GradientDescent(objective, optimize.GradientDescentOptions{
			Lo: 0, Hi: hi, X0: hi / 4, Tol: opt.Tol, GradEps: opt.Tol / 4,
		})
	default:
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.optimize_current",
			"core: unknown current method %d", opt.Method)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, err
	}
	iOpt := res.X

	peak, tile, theta, err := s.PeakAtCtx(ctx, iOpt)
	if err != nil {
		return nil, err
	}
	evals++
	// i = 0 is always feasible; never settle for a current that is worse
	// than doing nothing (can happen within tolerance at the boundary).
	if objective(0) <= peak {
		if peak, tile, theta, err = s.PeakAtCtx(ctx, 0); err != nil {
			return nil, err
		}
		iOpt = 0
	}
	if r != nil {
		r.FloatGauge("core.optimize_current.last_iopt").Set(iOpt)
		r.FloatGauge("core.optimize_current.last_peak_k").Set(peak)
		sp := obs.SpanFromContext(ctx)
		sp.AnnotateFloat("iopt", iOpt)
		sp.AnnotateFloat("peak_k", peak)
	}
	return &CurrentResult{
		IOpt:        iOpt,
		PeakK:       peak,
		PeakTile:    tile,
		Theta:       theta,
		TECPowerW:   s.TECPower(theta, iOpt),
		LambdaM:     lambda,
		Evaluations: evals,
	}, nil
}
