package core

import (
	"math"
	"sort"

	"tecopt/internal/num"
	"tecopt/internal/optimize"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// Multi-pin extension.
//
// The paper restricts the cooling system to a single extra package pin,
// so every TEC shares one supply current (Section III.B). This file
// implements the natural generalization it leaves open: K pins, with the
// deployed devices partitioned into K zones and a per-zone current
// vector i = (i_1 .. i_K). The model becomes
//
//	(G - sum_k i_k * D_k) theta = p(i),
//
// with D_k the Peltier diagonal of zone k and the Joule sources r*i_k^2/2
// on zone k's device nodes. Each coordinate of the peak-temperature
// objective is (under Conjecture 1) the familiar one-dimensional convex
// problem, so cyclic coordinate descent with the paper's 1-D machinery
// converges to a coordinate-wise minimum; with K=1 it reduces exactly to
// OptimizeCurrent.

// ZonedSystem augments a System with a zone partition of its TEC array.
type ZonedSystem struct {
	*System
	// ZoneOf[j] is the zone index of the j-th device (parallel to
	// Array.Tiles); zones are 0..Zones-1.
	ZoneOf []int
	// Zones is the number of zones (pins).
	Zones int
	dZone [][]float64 // per-zone D diagonals
}

// NewZonedSystem wraps a system with an explicit device->zone map.
func NewZonedSystem(sys *System, zoneOf []int) (*ZonedSystem, error) {
	if len(zoneOf) != sys.Array.Count() {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.zoned",
			"core: zone map length %d, want %d devices", len(zoneOf), sys.Array.Count())
	}
	zones := 0
	for _, z := range zoneOf {
		if z < 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.zoned", "core: negative zone index %d", z)
		}
		if z+1 > zones {
			zones = z + 1
		}
	}
	if zones == 0 {
		return nil, tecerr.New(tecerr.CodeInvalidInput, "core.zoned", "core: no zones (no devices deployed?)")
	}
	// Every zone must be nonempty.
	seen := make([]bool, zones)
	for _, z := range zoneOf {
		seen[z] = true
	}
	for z, ok := range seen {
		if !ok {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.zoned", "core: zone %d is empty", z)
		}
	}
	zs := &ZonedSystem{System: sys, ZoneOf: zoneOf, Zones: zones}
	zs.dZone = make([][]float64, zones)
	n := sys.NumNodes()
	for z := range zs.dZone {
		zs.dZone[z] = make([]float64, n)
	}
	alpha := sys.Array.Params.Seebeck
	for j := range sys.Array.Tiles {
		z := zoneOf[j]
		zs.dZone[z][sys.Array.Hot[j]] += alpha
		zs.dZone[z][sys.Array.Cold[j]] -= alpha
	}
	return zs, nil
}

// ZoneByColumns partitions the deployed devices into k vertical stripes
// of the die — a simple, routable pin assignment. Devices are ordered by
// tile column; stripe boundaries balance device counts.
func ZoneByColumns(sys *System, k int) ([]int, error) {
	nDev := sys.Array.Count()
	if k <= 0 || nDev == 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.zoned",
			"core: cannot build %d zones over %d devices", k, nDev)
	}
	if k > nDev {
		k = nDev
	}
	type devCol struct{ dev, col int }
	dc := make([]devCol, nDev)
	for j, tile := range sys.Array.Tiles {
		dc[j] = devCol{dev: j, col: tile % sys.Cfg.Cols}
	}
	sort.Slice(dc, func(a, b int) bool {
		if dc[a].col != dc[b].col {
			return dc[a].col < dc[b].col
		}
		return dc[a].dev < dc[b].dev
	})
	zoneOf := make([]int, nDev)
	for rank, d := range dc {
		zoneOf[d.dev] = rank * k / nDev
	}
	return zoneOf, nil
}

// MatrixZoned returns G - sum_k i_k D_k.
func (zs *ZonedSystem) MatrixZoned(currents []float64) *sparse.CSR {
	total := make([]float64, zs.NumNodes())
	for z, i := range currents {
		if num.IsZero(i) {
			continue
		}
		for n, dv := range zs.dZone[z] {
			total[n] += i * dv
		}
	}
	return zs.g.AddScaledDiag(-1, total)
}

// RHSZoned assembles p(i) with per-zone Joule sources.
func (zs *ZonedSystem) RHSZoned(currents []float64) []float64 {
	rhs := make([]float64, len(zs.base))
	copy(rhs, zs.base)
	r := zs.Array.Params.Resistance
	for j := range zs.Array.Tiles {
		i := currents[zs.ZoneOf[j]]
		half := 0.5 * r * i * i
		rhs[zs.Array.Hot[j]] += half
		rhs[zs.Array.Cold[j]] += half
	}
	return rhs
}

// SolveAtZoned solves the steady state for a current vector.
func (zs *ZonedSystem) SolveAtZoned(currents []float64) ([]float64, error) {
	if len(currents) != zs.Zones {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.zoned",
			"core: current vector length %d, want %d zones", len(currents), zs.Zones)
	}
	for _, i := range currents {
		if i < 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "core.zoned", "core: negative zone current %g", i)
		}
	}
	f, err := thermal.Factor(zs.MatrixZoned(currents), zs.perm)
	if err != nil {
		return nil, err
	}
	return f.Solve(zs.RHSZoned(currents))
}

// PeakAtZoned returns the peak silicon temperature at a current vector.
func (zs *ZonedSystem) PeakAtZoned(currents []float64) (float64, error) {
	theta, err := zs.SolveAtZoned(currents)
	if err != nil {
		return 0, err
	}
	peak, _ := zs.PN.PeakSilicon(theta)
	return peak, nil
}

// TECPowerZoned evaluates the total electrical input power over zones.
func (zs *ZonedSystem) TECPowerZoned(theta []float64, currents []float64) float64 {
	var s float64
	for j := range zs.Array.Tiles {
		i := currents[zs.ZoneOf[j]]
		s += zs.Array.Params.InputPower(i, theta[zs.Array.Hot[j]], theta[zs.Array.Cold[j]])
	}
	return s
}

// ZonedResult is the outcome of the multi-pin optimization.
type ZonedResult struct {
	Currents  []float64
	PeakK     float64
	Theta     []float64
	TECPowerW float64
	// Sweeps is the number of coordinate-descent passes executed.
	Sweeps int
}

// ZonedOptions tunes the coordinate descent.
type ZonedOptions struct {
	// Tol is the per-coordinate current tolerance (default 1e-3 A).
	Tol float64
	// MaxSweeps caps the coordinate passes (default 12).
	MaxSweeps int
	// CoordinateMax bounds each zone current's search interval when no
	// finite runaway bracket is found (default 64 A).
	CoordinateMax float64
}

func (o ZonedOptions) withDefaults() ZonedOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-3
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 12
	}
	if o.CoordinateMax <= 0 {
		o.CoordinateMax = 64
	}
	return o
}

// OptimizeZoned minimizes the peak temperature over the per-zone current
// vector by cyclic coordinate descent, each coordinate solved by
// golden-section on an adaptively bracketed interval (positive-
// definiteness failures evaluate as +Inf, keeping the search inside the
// runaway region's boundary).
//
// The descent starts from the single-pin optimum replicated across
// zones, so the result can never be worse than the paper's shared-
// current configuration; the peak-temperature objective is a maximum of
// convex functions, whose kinks can stall coordinate descent started
// elsewhere.
func (zs *ZonedSystem) OptimizeZoned(opt ZonedOptions) (*ZonedResult, error) {
	opt = opt.withDefaults()
	cur := make([]float64, zs.Zones)
	if single, err := zs.System.OptimizeCurrent(CurrentOptions{Tol: opt.Tol}); err == nil {
		for z := range cur {
			cur[z] = single.IOpt
		}
	}
	peak, err := zs.PeakAtZoned(cur)
	if err != nil {
		return nil, err
	}

	eval := func(z int, iz float64, base []float64) float64 {
		trial := make([]float64, len(base))
		copy(trial, base)
		trial[z] = iz
		p, err := zs.PeakAtZoned(trial)
		if err != nil {
			return math.Inf(1)
		}
		return p
	}

	sweeps := 0
	for ; sweeps < opt.MaxSweeps; sweeps++ {
		moved := false
		for z := 0; z < zs.Zones; z++ {
			// Bracket: grow until the objective worsens or PD fails.
			hi := 1.0
			f0 := eval(z, cur[z], cur)
			for hi < opt.CoordinateMax {
				if v := eval(z, cur[z]+hi, cur); math.IsInf(v, 1) || v > f0 {
					break
				}
				hi *= 2
			}
			lo := math.Max(0, cur[z]-hi)
			res, err := optimize.GoldenSection(func(iz float64) float64 {
				return eval(z, iz, cur)
			}, lo, cur[z]+hi, opt.Tol, 200)
			if err != nil {
				return nil, err
			}
			if res.F < peak-1e-9 {
				if math.Abs(res.X-cur[z]) > opt.Tol/2 {
					moved = true
				}
				cur[z] = res.X
				peak = res.F
			}
		}
		if !moved {
			sweeps++
			break
		}
	}

	theta, err := zs.SolveAtZoned(cur)
	if err != nil {
		return nil, err
	}
	peakK, _ := zs.PN.PeakSilicon(theta)
	return &ZonedResult{
		Currents:  cur,
		PeakK:     peakK,
		Theta:     theta,
		TECPowerW: zs.TECPowerZoned(theta, cur),
		Sweeps:    sweeps,
	}, nil
}
