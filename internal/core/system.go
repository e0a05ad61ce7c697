// Package core implements the paper's contribution: configuration of an
// on-chip active cooling system built from thin-film thermoelectric
// coolers. It assembles the coupled package+TEC model
// (G - i*D) theta = p, computes the thermal-runaway current limit
// lambda_m (Theorem 1), optimizes the shared TEC supply current by convex
// programming over [0, lambda_m) (Section V.C), decides the TEC
// deployment with the GreedyDeploy algorithm (Figure 5), certifies
// optimality via the Theorem-4 convexity check, and provides the
// Full-Cover baseline and the Conjecture-1 verification campaign of the
// experimental section.
package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"tecopt/internal/engine"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/power"
	"tecopt/internal/sparse"
	"tecopt/internal/tec"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// Config bundles everything needed to instantiate a cooling-system model.
type Config struct {
	// Geom is the package geometry; defaults to material.DefaultPackage.
	Geom material.PackageGeometry
	// Cols, Rows define the die tiling (default 12x12).
	Cols, Rows int
	// SpreaderCells, SinkCells set the coarse-layer resolutions
	// (defaults 20, 20).
	SpreaderCells, SinkCells int
	// Device gives the TEC parameters; defaults to tec.ChowdhuryDevice.
	Device tec.DeviceParams
	// TilePower is the worst-case per-tile silicon power (W), length
	// Cols*Rows.
	TilePower []float64
	// Solve selects the per-current solve strategy (default SolveAuto:
	// the Sherman-Morrison-Woodbury fast path with a direct fallback).
	Solve SolvePath
}

// SolvePath selects how SolveAt/Hkl/RunawayLimit evaluate the current
// family (G - i*D) theta = p(i).
type SolvePath int

const (
	// SolveAuto factors G once and applies per-current SMW corrections
	// (thermal.ReusableSystem), falling back to a direct factorization
	// of G - i*D near the runaway limit and when the capacitance matrix
	// loses conditioning.
	SolveAuto SolvePath = iota
	// SolveDirect forces the legacy path: one sparse Cholesky
	// factorization per current.
	SolveDirect
)

// Validate checks the configuration before any network assembly: the
// tiling must be positive with a tile count that fits an int, the layer
// resolutions nonnegative, the tile-power vector one entry per tile,
// every tile power finite and nonnegative, and the geometry and device
// parameters physical. CLIs call it up front so a bad input fails with
// a typed tecerr.CodeInvalidInput error instead of poisoning a solve.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cols <= 0 || c.Rows <= 0 {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: tiling %dx%d must be positive", c.Cols, c.Rows)
	}
	if c.Cols > math.MaxInt/c.Rows {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: tiling %dx%d overflows the tile count", c.Cols, c.Rows)
	}
	if c.SpreaderCells < 0 || c.SinkCells < 0 {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: layer resolutions %d, %d must not be negative", c.SpreaderCells, c.SinkCells)
	}
	nt := c.Cols * c.Rows
	if len(c.TilePower) != nt {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: tile power length %d, want %d", len(c.TilePower), nt)
	}
	if err := power.ValidateTilePower(c.TilePower); err != nil {
		return err
	}
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if c.Solve != SolveAuto && c.Solve != SolveDirect {
		return tecerr.Newf(tecerr.CodeInvalidInput, "core.validate",
			"core: unknown solve path %d", c.Solve)
	}
	return c.Device.Validate()
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Geom == (material.PackageGeometry{}) {
		c.Geom = material.DefaultPackage()
	}
	if c.Cols == 0 && c.Rows == 0 {
		c.Cols, c.Rows = 12, 12
	}
	if c.SpreaderCells == 0 {
		c.SpreaderCells = 20
	}
	if c.SinkCells == 0 {
		c.SinkCells = 20
	}
	if c.Device == (tec.DeviceParams{}) {
		c.Device = tec.ChowdhuryDevice()
	}
	return c
}

// System is an assembled thermal model of a package with a fixed TEC
// deployment, ready for current-domain analysis: (G - i*D) theta = p(i).
// It owns the SMW fast-path state its solves share, so it is used by
// pointer and never copied.
type System struct {
	Cfg   Config
	PN    *thermal.PackageNetwork
	Array *tec.Array // empty (Count()==0) when no TECs are deployed

	g    *sparse.CSR
	d    []float64
	base []float64 // ambient legs + silicon tile powers (current-free RHS)
	perm []int     // minimum-degree ordering of g's pattern, shared by every G - i*D

	fastOnce sync.Once               // guards the one fast-path setup
	fast     *thermal.ReusableSystem // nil under SolveDirect or after a failed setup
	load     sparse.PoleForm         // base in pole form, built with fast
}

// fastPathSetups counts the SMW fast-path setups started by every
// System of the process. It is diagnostics only: no solver code reads
// it (see SolverCacheStats).
var fastPathSetups atomic.Uint64

// SolverCacheStats reports the number of SMW fast-path setups in its
// Misses field; the other fields are zero. Each System builds its own
// fast-path state at most once, so no cache stands behind the count: the
// function stays because the repository benchmark reads Misses and
// Evictions from it.
func SolverCacheStats() engine.CacheStats {
	return engine.CacheStats{Misses: fastPathSetups.Load()}
}

// NewSystem builds the package network with the given TEC sites reserved,
// attaches one device per site, and assembles G, D and the base RHS.
// sites may be empty for a passive (no-TEC) model.
func NewSystem(cfg Config, sites []int) (*System, error) {
	cfg = cfg.withDefaults()
	nt := cfg.Cols * cfg.Rows
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts := thermal.BuildOptions{
		Cols: cfg.Cols, Rows: cfg.Rows,
		SpreaderCells: cfg.SpreaderCells, SinkCells: cfg.SinkCells,
		TECSites: make(map[int]bool, len(sites)),
	}
	for _, s := range sites {
		if s < 0 || s >= nt {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
				"core: TEC site %d out of range %d", s, nt)
		}
		if opts.TECSites[s] {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
				"core: duplicate TEC site %d", s)
		}
		opts.TECSites[s] = true
	}
	pn, err := thermal.BuildPackage(cfg.Geom, opts)
	if err != nil {
		return nil, err
	}
	arr, err := tec.Attach(pn, cfg.Device, sites)
	if err != nil {
		return nil, err
	}

	g := pn.Net.G()
	base := pn.Net.BaseRHS()
	p, err := pn.PowerVector(cfg.TilePower)
	if err != nil {
		return nil, err
	}
	for i, v := range p {
		base[i] += v
	}
	return &System{
		Cfg:   cfg,
		PN:    pn,
		Array: arr,
		g:     g,
		d:     arr.DVector(pn.Net.NumNodes()),
		base:  base,
		perm:  sparse.MinDegree(g),
	}, nil
}

// NumNodes returns the network size.
func (s *System) NumNodes() int { return s.PN.Net.NumNodes() }

// Sites returns the deployed TEC tiles.
func (s *System) Sites() []int { return s.Array.Tiles }

// Matrix returns G - i*D: a fresh CSR matrix, except at i = 0 or with
// no TEC deployed, where it is the System's own G. Callers must not
// modify the result.
func (s *System) Matrix(i float64) *sparse.CSR {
	if num.IsZero(i) || s.Array.Count() == 0 {
		return s.g
	}
	return s.g.AddScaledDiag(-i, s.d)
}

// Factor factors G - i*D (reusing the System's ordering). It returns
// thermal.ErrNotPD when i is at or beyond the runaway limit, and a
// tecerr.CodeInvalidInput error for a non-finite i, as the fast path
// does. Every call is a fresh factorization; Factor is safe for
// concurrent use.
func (s *System) Factor(i float64) (*thermal.Factorization, error) {
	if !num.IsFinite(i) {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.system",
			"core: non-finite supply current %g", i)
	}
	return thermal.Factor(s.Matrix(i), s.perm)
}

// RHS assembles p(i): ambient legs + silicon tile powers + the r*i^2/2
// Joule sources of the deployed devices.
func (s *System) RHS(i float64) []float64 {
	rhs := make([]float64, len(s.base))
	copy(rhs, s.base)
	s.Array.JoulePower(rhs, i)
	return rhs
}

// reusable returns the system's SMW fast-path state, built with s.load
// by the first call, or nil when the configuration forces the direct
// path or the setup failed (a degenerate update; the caller then factors
// per current). A failed setup is not retried, so the direct fallback
// costs one failed setup per System, not one per solve. Concurrent
// first callers share one setup. In a recorded trace the setup is a
// "thermal.reusable.setup" span under ctx's span, the read that
// triggered it, annotated with the backward error of the load's solve.
func (s *System) reusable(ctx context.Context) *thermal.ReusableSystem {
	if s.Cfg.Solve == SolveDirect {
		return nil
	}
	s.fastOnce.Do(func() {
		fastPathSetups.Add(1)
		r := obs.Enabled()
		if r != nil {
			r.Counter("core.system.reusable_setups").Inc()
		}
		if r.Tracing() {
			var sp obs.Span
			ctx, sp = r.StartSpanCtx(ctx, "thermal.reusable.setup")
			defer sp.End()
		}
		rs, err := thermal.NewReusableSystem(ctx, s.g, s.d, s.perm)
		if err == nil {
			s.load, err = rs.Form(ctx, s.base)
		}
		if err != nil {
			if r != nil {
				r.Counter("core.system.reusable_setup_failures").Inc()
			}
			return
		}
		s.fast = rs
	})
	return s.fast
}

// solveVec solves (G - i*D) x = rhs on the fastest available path: a
// base solve and the SMW correction when the fast path is up, a
// per-current factorization otherwise, both ErrNotPD at or beyond the
// runaway limit. The solve's regime span parents to ctx's span.
func (s *System) solveVec(ctx context.Context, i float64, rhs []float64) ([]float64, error) {
	if rs := s.reusable(ctx); rs != nil {
		return rs.SolveAtCurrent(ctx, i, rhs)
	}
	f, err := s.Factor(i)
	if err != nil {
		return nil, err
	}
	return f.Solve(rhs)
}

// SolveAt solves the steady state at supply current i.
func (s *System) SolveAt(i float64) ([]float64, error) {
	return s.SolveAtCtx(context.Background(), i)
}

// SolveAtCtx is SolveAt under a context carrying the trace
// span of the caller, so the solve's trace records link into the
// caller's hierarchy. The context does not cancel the solve itself (a
// factorization is one atomic unit of work).
func (s *System) SolveAtCtx(ctx context.Context, i float64) ([]float64, error) {
	theta := make([]float64, s.NumNodes())
	if err := s.readLoad(ctx, i, nil, theta); err != nil {
		return nil, err
	}
	return theta, nil
}

// readLoad writes rows of the field at current i into out: row rows[r]
// to out[r], or every row when rows is nil. The fast path reads the load
// p(i) = base + (r*i^2/2)*1_HC in pole form with no band solve (1_HC is
// D's support, as the Seebeck coefficient is positive).
func (s *System) readLoad(ctx context.Context, i float64, rows []int, out []float64) error {
	if err := checkCurrent("core.system", i); err != nil {
		return err
	}
	if rs := s.reusable(ctx); rs != nil {
		c := 0.5 * s.Array.Params.Resistance * i * i // JoulePower's source
		return rs.LoadAtCurrent(ctx, i, c, s.load, func() []float64 { return s.RHS(i) }, rows, out)
	}
	x, err := s.solveVec(ctx, i, s.RHS(i))
	if err != nil {
		return err
	}
	if rows == nil {
		copy(out, x)
	}
	for r, k := range rows {
		out[r] = x[k]
	}
	return nil
}

// checkCurrent rejects a supply current outside the model's domain:
// non-finite, or negative (the fast path's spectral limit bounds only
// positive currents, so a negative one would get a finite answer where
// the direct factorization reports ErrNotPD).
func checkCurrent(op string, i float64) error {
	if !num.IsFinite(i) {
		return tecerr.Newf(tecerr.CodeInvalidInput, op,
			"core: non-finite supply current %g", i)
	}
	if i < 0 {
		return tecerr.Newf(tecerr.CodeInvalidInput, op,
			"core: negative supply current %g", i)
	}
	return nil
}

// PeakAt solves at current i and returns the hottest silicon tile
// temperature (kelvin) with its tile index and the full field.
func (s *System) PeakAt(i float64) (peakK float64, tile int, theta []float64, err error) {
	return s.PeakAtCtx(context.Background(), i)
}

// PeakAtCtx is PeakAt under a trace context (see SolveAtCtx).
func (s *System) PeakAtCtx(ctx context.Context, i float64) (peakK float64, tile int, theta []float64, err error) {
	theta, err = s.SolveAtCtx(ctx, i)
	if err != nil {
		return 0, 0, nil, err
	}
	peakK, tile = s.PN.PeakSilicon(theta)
	return peakK, tile, theta, nil
}

// OverLimitTiles returns the silicon tiles whose temperature exceeds
// limitK in the given field — the set T of the GreedyDeploy loop.
func (s *System) OverLimitTiles(theta []float64, limitK float64) []int {
	var out []int
	for t, n := range s.PN.SilNode {
		if theta[n] > limitK {
			out = append(out, t)
		}
	}
	return out
}

// TECPower evaluates the array's total electrical input power (Eq. 3) in
// the field theta at current i.
func (s *System) TECPower(theta []float64, i float64) float64 {
	return s.Array.TotalInputPower(theta, i)
}
