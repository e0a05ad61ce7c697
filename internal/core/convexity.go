package core

import (
	"cmp"
	"context"
	"math"

	"tecopt/internal/num"
	"tecopt/internal/optimize"
	"tecopt/internal/tecerr"
)

// Optimality certification (Section V.C.2).
//
// Eq. (10) splits a node temperature as
//
//	theta_k(i) = (r i^2 / 2) * eta(i) + zeta(i)
//	eta(i)  = sum_{l in HOT u CLD} h_kl(i)
//	zeta(i) = sum_{l in SIL} h_kl(i) * p_l      (+ ambient-leg terms here)
//
// Under Conjecture 1 every h_kl is convex (Theorem 3), so eta and zeta
// are convex; only the product term r i^2 eta(i)/2 needs the Lemma-4
// feasibility test, partitioned over subranges per Theorem 4.

// EtaZeta evaluates eta(i), eta'(i) and zeta(i) for silicon tile k.
// eta' uses the identity H'(i) = H D H (proof of Theorem 3):
// eta'(i) = sum_{l in HOT u CLD} (H D H)_{kl} = x' D y with
// x = H e_k and y = H 1_{HOT u CLD} — two linear solves.
func (s *System) EtaZeta(i float64, tile int) (eta, etaPrime, zeta float64, err error) {
	if tile < 0 || tile >= s.PN.NumTiles() {
		return 0, 0, 0, tecerr.Newf(tecerr.CodeInvalidInput, "core.convexity", "core: tile %d out of range", tile)
	}
	n := s.NumNodes()
	k := s.PN.SilNode[tile]
	ctx := context.TODO()
	rs := s.reusable(ctx)

	// x = H e_k (row k of H by symmetry).
	e := make([]float64, n)
	e[k] = 1
	x, err := rs.SolveAtCurrent(ctx, i, e)
	if err != nil {
		return 0, 0, 0, err
	}

	// Indicator of HOT u CLD.
	ind := make([]float64, n)
	for idx := range s.Array.Tiles {
		ind[s.Array.Hot[idx]] = 1
		ind[s.Array.Cold[idx]] = 1
	}
	for l, on := range ind {
		if !num.IsZero(on) {
			eta += x[l]
		}
	}
	// zeta: transfer from the current-independent RHS (tile powers and
	// ambient legs).
	for l, b := range s.base {
		if !num.IsZero(b) {
			zeta += x[l] * b
		}
	}
	// eta' = x' D y with y = H 1_{HC}.
	y, err := rs.SolveAtCurrent(ctx, i, ind)
	if err != nil {
		return 0, 0, 0, err
	}
	for l, dv := range s.d {
		if !num.IsZero(dv) {
			etaPrime += x[l] * dv * y[l]
		}
	}
	return eta, etaPrime, zeta, nil
}

// ThetaDecomposition cross-checks Eq. (10): it evaluates
// r i^2 eta/2 + zeta and the directly solved theta_k, returning both.
func (s *System) ThetaDecomposition(i float64, tile int) (viaEq10, direct float64, err error) {
	eta, _, zeta, err := s.EtaZeta(i, tile)
	if err != nil {
		return 0, 0, err
	}
	theta, err := s.SolveAt(i)
	if err != nil {
		return 0, 0, err
	}
	r := s.Array.Params.Resistance
	return 0.5*r*i*i*eta + zeta, theta[s.PN.SilNode[tile]], nil
}

// ConvexityCertificate runs the Theorem-4 check for tile k over
// [0, lambda_m) partitioned into ranges subranges. It returns whether
// convexity of theta_k is certified; when it is, and Conjecture 1 holds,
// the current returned by OptimizeCurrent is globally optimal.
//
// More subranges tighten the eta'(i_t) lower bound at higher cost — the
// runtime/accuracy trade-off the paper describes after Theorem 4. A
// solve that fails inside the check fails the certificate with the
// first such error.
func (s *System) ConvexityCertificate(tile, ranges int) (bool, error) {
	if s.Array.Count() == 0 {
		return true, nil // theta is constant in i without TECs
	}
	lambda, err := s.RunawayLimit(RunawayOptions{})
	if err != nil {
		return false, err
	}
	hi := lambda
	if math.IsInf(hi, 1) {
		// No finite runaway limit: certify over the practically relevant
		// range instead (up to the current where Joule heating clearly
		// dominates; 10x the optimum search cap is ample).
		hi = 1e3
	}
	// A failed solve is latched: as +Inf alone it would certify.
	var solveErr error
	at := func(i float64, prime bool) float64 {
		eta, etaPrime, _, err := s.EtaZeta(i, tile)
		if solveErr = cmp.Or(solveErr, err); err != nil {
			return math.Inf(1)
		}
		if prime {
			return etaPrime
		}
		return eta
	}
	ok, _ := optimize.ConvexityCheck(func(i float64) float64 { return at(i, false) },
		func(i float64) float64 { return at(i, true) }, s.Array.Params.Resistance, hi, ranges)
	return ok && solveErr == nil, solveErr
}
