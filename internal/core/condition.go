package core

import (
	"math"

	"tecopt/internal/eigen"
)

// Conditioning diagnostics.
//
// Theorem 2's divergence of H(i) = (G - i*D)^{-1} is, numerically, the
// statement that the system matrix becomes singular at lambda_m: its
// smallest eigenvalue goes to zero, so the 2-norm condition number
// kappa_2 = mu_max / mu_min blows up. ConditionNumber exposes that
// directly — useful both as a solver-health diagnostic (how much
// precision a solve near the limit can retain) and as another view of
// the runaway phenomenon.

// ConditionNumber estimates kappa_2(G - i*D) via power iteration on the
// operator (largest eigenvalue) and on its inverse through the sparse
// Cholesky factorization (smallest eigenvalue). It returns +Inf past lambda_m.
func (s *System) ConditionNumber(i float64) (float64, error) {
	m := s.Matrix(i)
	fact, err := s.Factor(i)
	if err != nil {
		return math.Inf(1), nil // not PD: singular or indefinite
	}
	n := s.NumNodes()
	largest, _, err := eigen.PowerIteration(func(x []float64) []float64 {
		return m.MulVec(x)
	}, n, 1e-8, 3000)
	if err != nil {
		return 0, err
	}
	// Solve errors (impossible for power iteration's well-formed
	// vectors) are latched through the error-free Op signature.
	var opErr error
	invLargest, _, err := eigen.PowerIteration(func(x []float64) []float64 {
		y, err := fact.Solve(x)
		if err != nil {
			opErr = err
			return make([]float64, n)
		}
		return y
	}, n, 1e-8, 3000)
	if err != nil {
		return 0, err
	}
	if opErr != nil {
		return 0, opErr
	}
	if invLargest <= 0 {
		return math.Inf(1), nil
	}
	return largest * invLargest, nil
}

// ConditionSweep evaluates the condition number over fractions of
// lambda_m (fractions in [0,1)), for the conditioning study.
func (s *System) ConditionSweep(fractions []float64) (lambda float64, conds []float64, err error) {
	lambda, err = s.RunawayLimit(RunawayOptions{})
	if err != nil {
		return 0, nil, err
	}
	for _, f := range fractions {
		c, err := s.ConditionNumber(lambda * f)
		if err != nil {
			return 0, nil, err
		}
		conds = append(conds, c)
	}
	return lambda, conds, nil
}
