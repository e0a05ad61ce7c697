package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/eigen"
	"tecopt/internal/mat"
	"tecopt/internal/sparse"
	"tecopt/internal/thermal"
)

// build is a deployment a workload built a system for.
type build struct {
	cfg   core.Config
	sites []int
}

// fullCoverRank is the SMW update rank of a full cover: two network
// nodes per TEC on each of the 144 tiles.
const fullCoverRank = 288

// replay rebuilds each sampled system the way core.NewSystem and
// thermal.NewReusableSystem build one, timing each layer: assembly
// (NewSystem, which includes an RCM ordering), RCM alone, the base
// factorization, and sparse.NewSMW split into its base solves, timed
// through the solve function it is handed, and its dense work (M, its
// Cholesky factor, T, the eigendecomposition, P1 and P2). On each system
// it also times SMW corrections and a warm OptimizeCurrent. The
// program's instrumentation is off here; the benchmark's own spans still
// record every step.
func (e *env) replay(sample []build) error {
	ctx := context.Background()
	var newSys, rcm, factor, wsolve, denseLow, dense288, bandUS, corrLow, corr288, optMS []float64
	full := false
	for _, b := range sample {
		var sys *core.System
		d, err := e.timed(ctx, "benchmark.replay.new_system", func(context.Context) (err error) {
			sys, err = core.NewSystem(b.cfg, b.sites)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		newSys = append(newSys, ms(d))
		g := sys.Matrix(0)
		var perm []int
		d, _ = e.timed(ctx, "benchmark.replay.rcm", func(context.Context) error {
			perm = sparse.RCM(g)
			return nil
		})
		rcm = append(rcm, ms(d))
		var base *thermal.Factorization
		d, err = e.timed(ctx, "benchmark.replay.factor", func(context.Context) (err error) {
			base, err = thermal.Factor(g, perm)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		factor = append(factor, ms(d))

		var ws time.Duration
		timedSolve := func(rhs []float64) ([]float64, error) {
			t0 := time.Now()
			x, err := base.Solve(rhs)
			dt := time.Since(t0)
			ws += dt
			bandUS = append(bandUS, us(dt))
			return x, err
		}
		var smw *sparse.SMW
		d, err = e.timed(ctx, "benchmark.replay.smw_setup", func(context.Context) (err error) {
			smw, err = sparse.NewSMW(sys.Array.DVector(sys.NumNodes()), timedSolve)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if smw.Rank() == 0 {
			continue
		}
		wsolve = append(wsolve, ms(ws))
		corr, err := correctTimes(smw, base, sys)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if smw.Rank() >= fullCoverRank {
			full = true
			dense288 = append(dense288, ms(d-ws))
			corr288 = append(corr288, corr...)
		} else {
			denseLow = append(denseLow, ms(d-ws))
			corrLow = append(corrLow, corr...)
		}

		// The first call sets up the system's solver state; the second
		// is the warm optimization.
		if _, err := sys.OptimizeCurrent(core.CurrentOptions{}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		d, err = e.timed(ctx, "benchmark.replay.optimize_current", func(ctx context.Context) error {
			_, err := sys.OptimizeCurrent(core.CurrentOptions{Ctx: ctx})
			return err
		})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		optMS = append(optMS, ms(d))
	}
	e.layer["core.new_system_ms"] = meanOf(newSys)
	e.layer["sparse.rcm_ms"] = meanOf(rcm)
	e.layer["thermal.factor_ms"] = meanOf(factor)
	e.layer["sparse.smw_wsolve_ms"] = meanOf(wsolve)
	e.layer["sparse.smw_dense_ms.low"] = meanOf(denseLow)
	e.layer["sparse.smw_dense_ms.r288"] = meanOf(dense288)
	e.layer["thermal.band_solve_us_p50"] = median(bandUS)
	e.layer["sparse.smw_correct_us_p50.low"] = median(corrLow)
	e.layer["sparse.smw_correct_us_p50.r288"] = median(corr288)
	e.layer["core.optimize_current_ms"] = meanOf(optMS)
	if full {
		return e.kernels288()
	}
	return nil
}

// correctTimes times SMW corrections of the system's base solution at
// half its runaway limit, in microseconds.
func correctTimes(smw *sparse.SMW, base *thermal.Factorization, sys *core.System) ([]float64, error) {
	iA := 0.5 * smw.Lambda()
	if math.IsInf(iA, 1) {
		iA = 1
	}
	y0, err := base.Solve(sys.RHS(iA))
	if err != nil {
		return nil, err
	}
	out := make([]float64, 50)
	y := make([]float64, len(y0))
	for k := range out {
		copy(y, y0)
		t0 := time.Now()
		if err := smw.Correct(iA, y); err != nil {
			return nil, err
		}
		out[k] = us(time.Since(t0))
	}
	return out, nil
}

// kernels288 times the two dense kernels of a full-cover SMW setup, a
// Cholesky factorization and a symmetric eigendecomposition with
// vectors, on a seeded symmetric positive definite matrix of order 288
// (not the setup's own matrices, which NewSMW does not expose).
func (e *env) kernels288() error {
	a := spdMatrix(fullCoverRank, e.opt.seed)
	var chol, eig []float64
	for k := 0; k < 3; k++ {
		d, err := e.timed(context.Background(), "benchmark.kernel.cholesky", func(context.Context) error {
			_, err := mat.NewCholesky(a)
			return err
		})
		if err != nil {
			return err
		}
		chol = append(chol, ms(d))
		d, err = e.timed(context.Background(), "benchmark.kernel.symeig", func(context.Context) error {
			_, _, err := eigen.SymEig(a, true)
			return err
		})
		if err != nil {
			return err
		}
		eig = append(eig, ms(d))
	}
	e.layer["mat.cholesky_ms.m288"] = median(chol)
	e.layer["eigen.symeig_ms.m288"] = median(eig)
	return nil
}

// spdMatrix returns B B' + n I for a seeded B with entries in [-1, 1).
func spdMatrix(n int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for k := range b[i] {
			b[i][k] = 2*rng.Float64() - 1
		}
	}
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var v float64
			for k := 0; k < n; k++ {
				v += b[i][k] * b[j][k]
			}
			if i == j {
				v += float64(n)
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}
