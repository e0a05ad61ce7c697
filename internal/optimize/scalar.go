// Package optimize provides the one-dimensional optimization substrate
// used by the supply-current setting algorithm: golden-section search,
// Brent's method, gradient descent with backtracking line search (the
// method the paper names), bisection root finding, and the Lemma-4 convex
// feasibility test.
//
// The cooling-system current optimization (Problem 2 in the paper) is a
// one-dimensional convex program over i in [0, lambda_m); these routines
// are the "convex programming" machinery the paper invokes.
package optimize

import (
	"errors"
	"math"

	"tecopt/internal/num"
)

// ErrMaxIterations is returned when an iterative routine exhausts its
// budget before meeting its tolerance.
var ErrMaxIterations = errors.New("optimize: maximum iterations reached")

// ErrInvalidBracket is returned when a bracket [a, b] has a >= b or does
// not bracket the sought feature (e.g. no sign change for bisection).
var ErrInvalidBracket = errors.New("optimize: invalid bracket")

// Func is a scalar function of one variable.
type Func func(x float64) float64

// Result reports a scalar optimization outcome.
type Result struct {
	X          float64 // minimizer (or root) estimate
	F          float64 // function value at X
	Iterations int
	Converged  bool
}

// invPhi is 1/phi, the golden ratio section factor.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSection minimizes a unimodal function on [a, b] to the absolute
// x-tolerance tol. It is derivative-free and robust, which suits
// max-of-convex objectives like the peak tile temperature whose derivative
// is only piecewise continuous.
func GoldenSection(f Func, a, b, tol float64, maxIter int) (Result, error) {
	if !(a < b) {
		return Result{}, ErrInvalidBracket
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	it := 0
	for ; it < maxIter && b-a > tol; it++ {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	x := 0.5 * (a + b)
	res := Result{X: x, F: f(x), Iterations: it, Converged: b-a <= tol}
	if !res.Converged {
		return res, ErrMaxIterations
	}
	return res, nil
}

// Brent minimizes a unimodal function on [a, b] combining golden-section
// with successive parabolic interpolation. Typically 2-4x fewer function
// evaluations than pure golden-section on smooth objectives.
func Brent(f Func, a, b, tol float64, maxIter int) (Result, error) {
	if !(a < b) {
		return Result{}, ErrInvalidBracket
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	const cgold = 0.3819660112501051 // 2 - phi
	x := a + cgold*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for it := 1; it <= maxIter; it++ {
		xm := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + 1e-15
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-0.5*(b-a) {
			return Result{X: x, F: fx, Iterations: it, Converged: true}, nil
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Parabolic fit through x, v, w.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = cgold * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || num.ExactEqual(w, x) {
				v, w = w, u
				fv, fw = fw, fu
			} else if fu <= fv || num.ExactEqual(v, x) || num.ExactEqual(v, w) {
				v, fv = u, fu
			}
		}
	}
	return Result{X: x, F: fx, Iterations: maxIter, Converged: false}, ErrMaxIterations
}

// GradientDescentOptions configures the projected gradient descent.
type GradientDescentOptions struct {
	// X0 is the starting point; clamped into [Lo, Hi].
	X0 float64
	// Lo, Hi bound the feasible interval (the paper's [0, lambda_m)).
	Lo, Hi float64
	// Step0 is the initial step size tried by the backtracking line
	// search. Defaults to (Hi-Lo)/4.
	Step0 float64
	// Tol is the convergence tolerance on |x_{k+1} - x_k|.
	Tol float64
	// GradEps is the finite-difference half-width used when Grad is nil.
	GradEps float64
	// Grad optionally supplies an analytic derivative.
	Grad Func
	// MaxIter caps the outer iterations. Defaults to 500.
	MaxIter int
}

// GradientDescent minimizes f over [Lo, Hi] with projected gradient
// descent and an Armijo backtracking line search. This mirrors the
// paper's Section V.C.3 ("we employ the gradient descent method");
// for 1-D convex objectives it converges to the same optimum as
// GoldenSection, which the tests verify.
func GradientDescent(f Func, opt GradientDescentOptions) (Result, error) {
	if !(opt.Lo < opt.Hi) {
		return Result{}, ErrInvalidBracket
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 500
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.Step0 <= 0 {
		opt.Step0 = (opt.Hi - opt.Lo) / 4
	}
	if opt.GradEps <= 0 {
		opt.GradEps = 1e-7 * (opt.Hi - opt.Lo)
	}
	clamp := func(x float64) float64 {
		if x < opt.Lo {
			return opt.Lo
		}
		if x > opt.Hi {
			return opt.Hi
		}
		return x
	}
	grad := opt.Grad
	if grad == nil {
		grad = func(x float64) float64 {
			h := opt.GradEps
			// One-sided differences at the interval boundaries.
			lo, hi := clamp(x-h), clamp(x+h)
			if num.ExactEqual(hi, lo) {
				return 0
			}
			return (f(hi) - f(lo)) / (hi - lo)
		}
	}

	x := clamp(opt.X0)
	fx := f(x)
	const armijo = 1e-4
	for it := 1; it <= opt.MaxIter; it++ {
		g := grad(x)
		if num.IsZero(g) {
			return Result{X: x, F: fx, Iterations: it, Converged: true}, nil
		}
		step := opt.Step0
		var xNew, fNew float64
		accepted := false
		for ls := 0; ls < 60; ls++ {
			xNew = clamp(x - step*g)
			fNew = f(xNew)
			if fNew <= fx-armijo*math.Abs(g*(xNew-x)) && !num.ExactEqual(xNew, x) {
				accepted = true
				break
			}
			step *= 0.5
		}
		if accepted {
			// Armijo alone can settle on a step that barely descends
			// (slow zig-zag on steep quadratics); keep halving while the
			// objective strictly improves and take the best point seen.
			for ls := 0; ls < 60; ls++ {
				step *= 0.5
				xTry := clamp(x - step*g)
				fTry := f(xTry)
				if fTry >= fNew || num.ExactEqual(xTry, x) {
					break
				}
				xNew, fNew = xTry, fTry
			}
		}
		if !accepted {
			// No descent possible: x is (numerically) optimal.
			return Result{X: x, F: fx, Iterations: it, Converged: true}, nil
		}
		if math.Abs(xNew-x) < opt.Tol {
			return Result{X: xNew, F: fNew, Iterations: it, Converged: true}, nil
		}
		x, fx = xNew, fNew
	}
	return Result{X: x, F: fx, Iterations: opt.MaxIter, Converged: false}, ErrMaxIterations
}

// BinarySearchBoundary finds, within [lo, hi], the supremum of the set
// {x : pred(x)} assuming pred is true on a prefix [lo, x*) and false
// beyond. pred(lo) must hold. This implements the paper's lambda_m
// computation pattern: pred(i) = "G - i*D is positive definite".
func BinarySearchBoundary(pred func(float64) bool, lo, hi, tol float64, maxIter int) (float64, error) {
	if !(lo < hi) {
		return 0, ErrInvalidBracket
	}
	if !pred(lo) {
		return 0, ErrInvalidBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	if pred(hi) {
		// Boundary is at or beyond hi.
		return hi, nil
	}
	for it := 0; it < maxIter && hi-lo > tol*math.Max(1, math.Abs(hi)); it++ {
		m := 0.5 * (lo + hi)
		if pred(m) {
			lo = m
		} else {
			hi = m
		}
	}
	return lo, nil
}
