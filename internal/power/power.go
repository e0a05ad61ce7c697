// Package power models worst-case chip power profiles.
//
// The paper obtains per-unit worst-case powers by simulating SPEC2000 on
// the M5 microarchitectural simulator with the Wattch power model and
// adding a 20% margin. Neither tool (nor the traces) is available here,
// so this package substitutes an analytic activity-based power model — a
// per-unit idle power plus an activity-scaled dynamic power, the same
// abstraction Wattch implements — driven by a set of synthetic
// SPEC2000-like workloads. The model is calibrated so the resulting
// worst-case envelope reproduces the statistics the paper publishes for
// the Alpha-21364-like chip: IntReg at 282.4 W/cm^2, L2 at 25.0 W/cm^2,
// 20.6 W total, and the six hot units consuming ~28% of the power in
// ~10-12% of the area.
package power

import (
	"math"
	"sort"

	"tecopt/internal/floorplan"
	"tecopt/internal/num"
	"tecopt/internal/tecerr"
)

// UnitParams describes one functional unit's power behaviour.
// Densities are in W/m^2.
type UnitParams struct {
	// IdleDensity is the leakage/clock power density at zero activity.
	IdleDensity float64
	// DynamicDensity is the additional density at activity 1.0.
	DynamicDensity float64
}

// Density returns the power density at the given activity in [0, 1].
func (u UnitParams) Density(activity float64) float64 {
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	return u.IdleDensity + activity*u.DynamicDensity
}

// Model is an activity-based per-unit power model (the Wattch substitute).
type Model struct {
	Units map[string]UnitParams
}

// Workload gives per-unit activity factors in [0, 1]; absent units run at
// zero activity.
type Workload struct {
	Name     string
	Activity map[string]float64
}

// Envelope returns, per unit, the maximum activity over the workloads —
// the worst case the cooling system must be designed for.
func Envelope(workloads []Workload) map[string]float64 {
	env := make(map[string]float64)
	for _, w := range workloads {
		for u, a := range w.Activity {
			if a > env[u] {
				env[u] = a
			}
		}
	}
	return env
}

// WorstCaseDensities evaluates the model at the workload envelope and
// applies the multiplicative margin (the paper uses 1.2).
func (m *Model) WorstCaseDensities(workloads []Workload, margin float64) map[string]float64 {
	env := Envelope(workloads)
	out := make(map[string]float64, len(m.Units))
	for name, up := range m.Units {
		out[name] = up.Density(env[name]) * margin
	}
	return out
}

// Densities evaluates the model for a single workload without margin.
func (m *Model) Densities(w Workload) map[string]float64 {
	out := make(map[string]float64, len(m.Units))
	for name, up := range m.Units {
		out[name] = up.Density(w.Activity[name])
	}
	return out
}

// alphaWorstDensity is the calibrated worst-case power density table for
// the Alpha-21364-like floorplan, in W/cm^2, including the 20% margin.
// IntReg and L2 match the values quoted in Section VI.A; the remaining
// units are set so the totals reproduce the paper's statistics (20.6 W
// total; IntReg, IntExec, IQ, LSQ, FPMul, FPAdd ~28-29% of power).
var alphaWorstDensity = map[string]float64{
	"IntReg":   282.4,
	"IntExec":  150.0,
	"IntQ":     105.0,
	"LdStQ":    90.0,
	"FPMul":    120.0,
	"FPAdd":    80.0,
	"FPReg":    70.0,
	"FPMap":    40.0,
	"IntMap":   55.0,
	"FPQ":      40.0,
	"ITB":      60.0,
	"Icache":   69.0,
	"Dcache":   75.0,
	"Bpred":    50.0,
	"DTB":      50.0,
	"L2":       25.0,
	"L2_left":  25.0,
	"L2_right": 25.0,
	"Router":   80.0,
	"MemCtrl":  80.0,
}

// WattsPerCm2 converts W/cm^2 to W/m^2.
const WattsPerCm2 = 1e4

// AlphaWorstCaseDensities returns the calibrated worst-case densities for
// the Alpha chip in W/m^2 (margin included).
func AlphaWorstCaseDensities() map[string]float64 {
	out := make(map[string]float64, len(alphaWorstDensity))
	for k, v := range alphaWorstDensity {
		out[k] = v * WattsPerCm2
	}
	return out
}

// NewAlphaModel builds the activity model whose workload envelope, with
// the paper's 20% margin, reproduces AlphaWorstCaseDensities exactly:
// idle is 25% of the pre-margin worst case and the dynamic range covers
// the rest at activity 1.
func NewAlphaModel() *Model {
	const margin = 1.2
	units := make(map[string]UnitParams, len(alphaWorstDensity))
	for name, worst := range alphaWorstDensity {
		preMargin := worst * WattsPerCm2 / margin
		idle := 0.25 * preMargin
		units[name] = UnitParams{IdleDensity: idle, DynamicDensity: preMargin - idle}
	}
	return &Model{Units: units}
}

// SyntheticSPECWorkloads returns ten synthetic workloads patterned after
// SPEC CPU2000 behaviour classes (integer-heavy, FP-heavy, memory-bound,
// branchy, balanced). Activities are normalized so every unit reaches
// activity 1.0 in at least one workload; the envelope therefore evaluates
// the model at its full dynamic range, matching the worst-case
// construction of Section VI.A.
func SyntheticSPECWorkloads() []Workload {
	raw := []Workload{
		{Name: "gzip-like", Activity: map[string]float64{
			"IntReg": 1.0, "IntExec": 1.0, "IntQ": 1.0, "LdStQ": 0.8, "Icache": 0.7,
			"Dcache": 0.9, "Bpred": 0.8, "DTB": 0.8, "ITB": 0.6, "IntMap": 1.0,
			"L2": 0.4, "L2_left": 0.4, "L2_right": 0.4, "MemCtrl": 0.5, "Router": 0.2,
			"FPAdd": 0.05, "FPMul": 0.05, "FPReg": 0.05, "FPMap": 0.05, "FPQ": 0.05,
		}},
		{Name: "gcc-like", Activity: map[string]float64{
			"IntReg": 0.9, "IntExec": 0.85, "IntQ": 0.9, "LdStQ": 1.0, "Icache": 1.0,
			"Dcache": 0.8, "Bpred": 1.0, "DTB": 0.9, "ITB": 1.0, "IntMap": 0.9,
			"L2": 0.7, "L2_left": 0.7, "L2_right": 0.7, "MemCtrl": 0.6, "Router": 0.3,
			"FPAdd": 0.05, "FPMul": 0.05, "FPReg": 0.05, "FPMap": 0.05, "FPQ": 0.05,
		}},
		{Name: "mcf-like", Activity: map[string]float64{
			"IntReg": 0.5, "IntExec": 0.4, "IntQ": 0.5, "LdStQ": 0.9, "Icache": 0.3,
			"Dcache": 1.0, "Bpred": 0.4, "DTB": 1.0, "ITB": 0.3, "IntMap": 0.4,
			"L2": 1.0, "L2_left": 1.0, "L2_right": 1.0, "MemCtrl": 1.0, "Router": 0.7,
			"FPAdd": 0.02, "FPMul": 0.02, "FPReg": 0.02, "FPMap": 0.02, "FPQ": 0.02,
		}},
		{Name: "crafty-like", Activity: map[string]float64{
			"IntReg": 0.95, "IntExec": 0.9, "IntQ": 0.85, "LdStQ": 0.7, "Icache": 0.8,
			"Dcache": 0.7, "Bpred": 0.9, "DTB": 0.7, "ITB": 0.7, "IntMap": 0.8,
			"L2": 0.5, "L2_left": 0.5, "L2_right": 0.5, "MemCtrl": 0.4, "Router": 0.2,
			"FPAdd": 0.05, "FPMul": 0.05, "FPReg": 0.05, "FPMap": 0.05, "FPQ": 0.05,
		}},
		{Name: "art-like", Activity: map[string]float64{
			"IntReg": 0.4, "IntExec": 0.35, "IntQ": 0.4, "LdStQ": 0.8, "Icache": 0.3,
			"Dcache": 0.9, "Bpred": 0.3, "DTB": 0.8, "ITB": 0.3, "IntMap": 0.4,
			"L2": 0.9, "L2_left": 0.9, "L2_right": 0.9, "MemCtrl": 0.9, "Router": 0.5,
			"FPAdd": 1.0, "FPMul": 0.9, "FPReg": 1.0, "FPMap": 1.0, "FPQ": 1.0,
		}},
		{Name: "equake-like", Activity: map[string]float64{
			"IntReg": 0.45, "IntExec": 0.4, "IntQ": 0.45, "LdStQ": 0.85, "Icache": 0.35,
			"Dcache": 0.85, "Bpred": 0.35, "DTB": 0.75, "ITB": 0.3, "IntMap": 0.45,
			"L2": 0.85, "L2_left": 0.85, "L2_right": 0.85, "MemCtrl": 0.8, "Router": 0.4,
			"FPAdd": 0.9, "FPMul": 1.0, "FPReg": 0.9, "FPMap": 0.9, "FPQ": 0.9,
		}},
		{Name: "swim-like", Activity: map[string]float64{
			"IntReg": 0.35, "IntExec": 0.3, "IntQ": 0.35, "LdStQ": 0.9, "Icache": 0.25,
			"Dcache": 0.8, "Bpred": 0.25, "DTB": 0.7, "ITB": 0.25, "IntMap": 0.35,
			"L2": 0.95, "L2_left": 0.95, "L2_right": 0.95, "MemCtrl": 0.95, "Router": 1.0,
			"FPAdd": 0.85, "FPMul": 0.85, "FPReg": 0.8, "FPMap": 0.8, "FPQ": 0.85,
		}},
		{Name: "vortex-like", Activity: map[string]float64{
			"IntReg": 0.85, "IntExec": 0.8, "IntQ": 0.8, "LdStQ": 0.95, "Icache": 0.9,
			"Dcache": 0.95, "Bpred": 0.8, "DTB": 0.95, "ITB": 0.9, "IntMap": 0.8,
			"L2": 0.8, "L2_left": 0.8, "L2_right": 0.8, "MemCtrl": 0.7, "Router": 0.4,
			"FPAdd": 0.05, "FPMul": 0.05, "FPReg": 0.05, "FPMap": 0.05, "FPQ": 0.05,
		}},
		{Name: "mesa-like", Activity: map[string]float64{
			"IntReg": 0.7, "IntExec": 0.65, "IntQ": 0.7, "LdStQ": 0.75, "Icache": 0.6,
			"Dcache": 0.75, "Bpred": 0.6, "DTB": 0.7, "ITB": 0.55, "IntMap": 0.65,
			"L2": 0.6, "L2_left": 0.6, "L2_right": 0.6, "MemCtrl": 0.6, "Router": 0.3,
			"FPAdd": 0.7, "FPMul": 0.75, "FPReg": 0.7, "FPMap": 0.7, "FPQ": 0.7,
		}},
		{Name: "perl-like", Activity: map[string]float64{
			"IntReg": 0.9, "IntExec": 0.85, "IntQ": 0.9, "LdStQ": 0.85, "Icache": 0.95,
			"Dcache": 0.85, "Bpred": 0.95, "DTB": 0.85, "ITB": 0.95, "IntMap": 0.85,
			"L2": 0.6, "L2_left": 0.6, "L2_right": 0.6, "MemCtrl": 0.5, "Router": 0.25,
			"FPAdd": 0.1, "FPMul": 0.1, "FPReg": 0.1, "FPMap": 0.1, "FPQ": 0.1,
		}},
	}
	// Normalize so every unit's envelope is exactly 1.0.
	env := Envelope(raw)
	for _, w := range raw {
		for u := range w.Activity {
			if env[u] > 0 {
				w.Activity[u] /= env[u]
			}
		}
	}
	return raw
}

// AlphaTilePowers returns the worst-case per-tile power vector (W) for
// the Alpha floorplan/grid, i.e. the input the optimizer consumes.
func AlphaTilePowers(f *floorplan.Floorplan, g *floorplan.Grid) []float64 {
	return g.DensityPerTile(f, AlphaWorstCaseDensities())
}

// CheckBudget verifies that a per-tile power vector sums to total within
// rel, returning a descriptive error otherwise. Guards against silently
// dropping units when floorplan and power tables drift apart.
func CheckBudget(p []float64, total, rel float64) error {
	var s float64
	for _, v := range p {
		s += v
	}
	if math.Abs(s-total) > rel*total {
		return tecerr.Newf(tecerr.CodeInvalidInput, "power.validate",
			"power: tile powers sum to %.4g W, want %.4g W", s, total)
	}
	return nil
}

// TopTiles returns the indices of the n highest-power tiles, descending.
func TopTiles(p []float64, n int) []int {
	idx := make([]int, len(p))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p[idx[a]] > p[idx[b]] })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// ValidateTilePower is the power-map validation entry point: it rejects
// NaN/Inf and negative per-tile powers with a tecerr.CodeInvalidInput
// error naming the offending tile. Every CLI runs its power map through
// this before handing it to a solver — a single NaN tile power would
// otherwise sail through plain sign checks (NaN fails `v < 0` too) and
// surface only as a diverging solve.
func ValidateTilePower(p []float64) error {
	if len(p) == 0 {
		return tecerr.New(tecerr.CodeInvalidInput, "power.validate",
			"power: empty tile power vector")
	}
	for t, v := range p {
		if !num.IsFinite(v) {
			return tecerr.Newf(tecerr.CodeInvalidInput, "power.validate",
				"power: non-finite power %g at tile %d", v, t)
		}
		if v < 0 {
			return tecerr.Newf(tecerr.CodeInvalidInput, "power.validate",
				"power: negative power %g at tile %d", v, t)
		}
	}
	return nil
}
