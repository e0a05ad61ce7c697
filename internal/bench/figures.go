package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/power"
	"tecopt/internal/refsolver"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// Figure 6: h_kl(i) as a function of the supply current — nonnegative,
// convex, diverging at lambda_m.

// Figure6Result carries the sampled runaway curve.
type Figure6Result struct {
	// LambdaM is the runaway limit of the system.
	LambdaM float64
	// Currents are the sampled supply currents (A).
	Currents []float64
	// Hkl are the transfer coefficients h_kl(i) (K/W); the last samples
	// approach the divergence.
	Hkl []float64
	// PeakC is the peak silicon temperature at each current — the
	// physically observable version of the same divergence.
	PeakC []float64
	// System is the greedy deployment the curve was sampled on.
	System *core.System
}

// Figure6Options configures the runaway-curve sweep.
type Figure6Options struct {
	// Points is the number of current samples (default 16, minimum 4).
	Points int
	// Ctx, when non-nil, cancels the sweep between sample points and
	// flows into the deployment, whose current optimization also
	// searches lambda_m.
	Ctx context.Context
}

// RunFigure6Opts builds the Alpha system with its greedy deployment and
// sweeps h_kl(i) from 0 toward lambda_m. k is the silicon node of the
// hottest tile and l the hot node of the first deployed device,
// the pairing whose divergence dominates the runaway. The sweep is
// serial: System.HklSweep builds the curve, then each point's peak is
// one solve. Only a loss of positive definiteness (thermal runaway)
// reads as +Inf; any other solver error aborts the sweep.
func RunFigure6Opts(opt Figure6Options) (*Figure6Result, error) {
	points := opt.Points
	if points < 4 {
		points = 16
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	cfg := core.Config{TilePower: p}
	dep, err := core.GreedyDeploy(cfg, material.CelsiusToKelvin(85), core.CurrentOptions{Ctx: opt.Ctx})
	if err != nil {
		return nil, err
	}
	// The deployment's current optimization has already searched
	// lambda_m on this System.
	sys, lambda := dep.System, dep.Current.LambdaM
	res := &Figure6Result{
		LambdaM:  lambda,
		Currents: make([]float64, points),
		PeakC:    make([]float64, points),
		System:   sys,
	}
	for n := range res.Currents {
		// Denser sampling near the limit, where the curve shoots up.
		frac := 1 - math.Pow(1-float64(n)/float64(points-1), 2)
		res.Currents[n] = lambda * frac * (1 - 1e-6)
	}
	k := sys.PN.SilNode[dep.Current.PeakTile]
	l := sys.Array.Hot[0]
	if res.Hkl, err = sys.HklSweep(ctx, k, l, res.Currents); err != nil {
		return nil, err
	}
	for n, i := range res.Currents {
		if ctx.Err() != nil {
			return nil, tecerr.Cancelled("bench.figure6", context.Cause(ctx))
		}
		peak, _, _, err := sys.PeakAtCtx(ctx, i)
		switch {
		case errors.Is(err, thermal.ErrNotPD):
			res.PeakC[n] = math.Inf(1)
		case err != nil:
			return nil, fmt.Errorf("bench: figure 6 peak at i=%g A: %w", i, err)
		default:
			res.PeakC[n] = material.KelvinToCelsius(peak)
		}
	}
	return res, nil
}

// FormatFigure6 renders the series as an aligned table plus an ASCII
// sketch of the h_kl(i) curve.
func FormatFigure6(r *Figure6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: h_kl(i) over [0, lambda_m), lambda_m = %.2f A\n", r.LambdaM)
	b.WriteString("   i (A)     h_kl (K/W)    peak (C)\n")
	for n := range r.Currents {
		fmt.Fprintf(&b, "%8.3f %12.4g %11.4g\n", r.Currents[n], r.Hkl[n], r.PeakC[n])
	}
	b.WriteString(sketch(r.Currents, r.Hkl, 18, 56))
	return b.String()
}

// sketch draws a crude ASCII plot of y(x) with log-scaled y.
func sketch(xs, ys []float64, hRows, wCols int) string {
	if len(xs) == 0 {
		return ""
	}
	logY := make([]float64, len(ys))
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i, y := range ys {
		if math.IsInf(y, 0) || y <= 0 {
			logY[i] = math.NaN()
			continue
		}
		logY[i] = math.Log10(y)
		minY = math.Min(minY, logY[i])
		maxY = math.Max(maxY, logY[i])
	}
	if !(maxY > minY) {
		return ""
	}
	grid := make([][]byte, hRows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", wCols))
	}
	xMax := xs[len(xs)-1]
	for i, x := range xs {
		if math.IsNaN(logY[i]) {
			continue
		}
		c := int(float64(wCols-1) * x / xMax)
		r := hRows - 1 - int(float64(hRows-1)*(logY[i]-minY)/(maxY-minY))
		grid[r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "log10(h_kl) sketch (y: %.2g .. %.2g, x: 0 .. %.3g A):\n", math.Pow(10, minY), math.Pow(10, maxY), xMax)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", wCols) + "-> i\n")
	return b.String()
}

// Figure 7: the Alpha floorplan deployment map.

// Figure7Result carries the deployment and its rendering.
type Figure7Result struct {
	Sites []int
	Map   string
}

// RunFigure7 reproduces Figure 7(b): the set of tiles the greedy
// algorithm covers with TEC devices on the Alpha floorplan.
func RunFigure7() (*Figure7Result, error) {
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	dep, err := core.GreedyDeploy(core.Config{TilePower: p}, material.CelsiusToKelvin(85), core.CurrentOptions{})
	if err != nil {
		return nil, err
	}
	marked := make(map[int]bool, len(dep.Sites))
	for _, s := range dep.Sites {
		marked[s] = true
	}
	return &Figure7Result{Sites: dep.Sites, Map: floorplan.AsciiMap(f, g, marked)}, nil
}

// ValidationResult summarizes the compact-vs-reference comparison.
type ValidationResult struct {
	// WorstDiffC is the worst per-tile difference at matched lateral
	// granularity (the paper's < 1.5 C HotSpot check).
	WorstDiffC float64
	// FineWorstDiffC and FineMeanBiasC quantify sub-tile granularity
	// effects against a 2x finer reference grid.
	FineWorstDiffC, FineMeanBiasC float64
	// ReferenceNodes is the fine model size.
	ReferenceNodes int
}

// RunValidation reproduces the Section-VI model validation on the Alpha
// worst-case power map.
func RunValidation() (*ValidationResult, error) {
	geom := material.DefaultPackage()
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)

	pn, err := thermal.BuildPackage(geom, thermal.DefaultBuildOptions())
	if err != nil {
		return nil, err
	}
	theta, err := pn.SolvePassive(p)
	if err != nil {
		return nil, err
	}
	compact := pn.SiliconTemps(theta)

	matched, err := refsolver.Solve(geom, 12, 12, p, refsolver.Options{FinePitch: geom.DieWidth / 12})
	if err != nil {
		return nil, err
	}
	fine, err := refsolver.Solve(geom, 12, 12, p, refsolver.Options{FinePitch: geom.DieWidth / 24})
	if err != nil {
		return nil, err
	}
	out := &ValidationResult{ReferenceNodes: fine.Nodes}
	for i := range compact {
		if d := math.Abs(compact[i] - matched.TileTempsK[i]); d > out.WorstDiffC {
			out.WorstDiffC = d
		}
		d := compact[i] - fine.TileTempsK[i]
		out.FineMeanBiasC += d
		if math.Abs(d) > out.FineWorstDiffC {
			out.FineWorstDiffC = math.Abs(d)
		}
	}
	out.FineMeanBiasC /= float64(len(compact))
	return out, nil
}
