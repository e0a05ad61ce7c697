// Package transient extends the steady-state compact model with lumped
// thermal capacitances and a backward-Euler time integrator.
//
// The paper analyzes the steady state only and proves (Theorem 2) that
// for supply currents beyond lambda_m the steady-state temperatures
// diverge. This extension makes that statement dynamic: with node heat
// capacities C the package obeys
//
//	C dtheta/dt = -(G - i*D) theta + p(i),
//
// a linear ODE whose state matrix -(G - i*D) is Hurwitz exactly when
// G - i*D is positive definite. Below lambda_m every trajectory relaxes
// to the steady state; above it the runaway mode grows exponentially —
// the "thermal runaway of the system" the paper warns about, observable
// here as a rising trajectory rather than a failed factorization.
package transient

import (
	"context"
	"fmt"
	"math"

	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// Capacitances returns the lumped heat capacity (J/K) of every node of a
// package network: cell volume times the material's volumetric heat
// capacity. TEC hot/cold nodes get half the displaced TIM volume each
// (thin metal headers plus film, the same order of magnitude).
func Capacitances(pn *thermal.PackageNetwork) []float64 {
	geom := pn.Geom
	tileArea := (geom.DieWidth / float64(pn.Opts.Cols)) * (geom.DieHeight / float64(pn.Opts.Rows))
	sprCell := geom.SpreaderSide / float64(pn.Opts.SpreaderCells)
	snkCell := geom.SinkSide / float64(pn.Opts.SinkCells)

	caps := make([]float64, pn.Net.NumNodes())
	for i := range caps {
		switch pn.Net.Node(i).Kind {
		case thermal.KindSilicon:
			caps[i] = tileArea * geom.DieThickness * material.Silicon.VolumetricHeatCapacity
		case thermal.KindTIM:
			caps[i] = tileArea * geom.TIMThickness * material.TIM.VolumetricHeatCapacity
		case thermal.KindTECCold, thermal.KindTECHot:
			caps[i] = 0.5 * tileArea * geom.TIMThickness * material.Superlattice.VolumetricHeatCapacity
		case thermal.KindSpreader:
			caps[i] = sprCell * sprCell * geom.SpreaderThickness * material.Copper.VolumetricHeatCapacity
		case thermal.KindSink:
			caps[i] = snkCell * snkCell * geom.SinkThickness * material.Copper.VolumetricHeatCapacity
		}
	}
	return caps
}

// Phase is one segment of a piecewise-constant supply-current schedule.
type Phase struct {
	// Current is the TEC supply current during the phase (A).
	Current float64
	// Duration is the phase length in seconds.
	Duration float64
}

// Options configures a simulation.
type Options struct {
	// Dt is the time step (s). Default 1e-3.
	Dt float64
	// Theta0 is the initial field; defaults to the ambient temperature
	// everywhere.
	Theta0 []float64
	// RunawayCeilingK aborts the run when the peak silicon temperature
	// exceeds this value, flagging runaway. Default 1000 K.
	RunawayCeilingK float64
	// SampleEvery records every n-th step in the trace (default 1).
	SampleEvery int
	// Ctx, when non-nil, cancels the integration between steps. A
	// cancelled Simulate returns the partial trace accumulated so far
	// (Final set to the last field) alongside a tecerr.CodeCancelled
	// error, so callers can flush what was already integrated.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Dt <= 0 {
		o.Dt = 1e-3
	}
	if o.RunawayCeilingK <= 0 {
		o.RunawayCeilingK = 1000
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	return o
}

// Sample is one recorded trajectory point.
type Sample struct {
	TimeS    float64
	PeakK    float64
	PeakTile int
	Current  float64
}

// Trace is a simulation result.
type Trace struct {
	Samples []Sample
	// Runaway is true when the simulation hit the temperature ceiling.
	Runaway bool
	// Final is the last full temperature field.
	Final []float64
}

// ErrBadSchedule reports an empty or non-positive schedule.
var ErrBadSchedule error = tecerr.New(tecerr.CodeInvalidInput, "transient.simulate",
	"transient: schedule must contain positive-duration phases")

// Simulate integrates the package ODE through the current schedule with
// backward Euler: (C/dt + G - i*D) theta_{n+1} = (C/dt) theta_n + p(i).
// Backward Euler is unconditionally stable for the stable regime and
// reproduces exponential growth in the runaway regime (for dt small
// against the unstable mode's time constant).
func Simulate(sys *core.System, schedule []Phase, opt Options) (*Trace, error) {
	opt = opt.withDefaults()
	if len(schedule) == 0 {
		return nil, ErrBadSchedule
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r := obs.Enabled()
	if r != nil {
		var sp obs.Span
		ctx, sp = r.StartSpanCtx(ctx, "transient.simulate")
		defer sp.End()
		r.Counter("transient.simulations").Inc()
		r.Counter("transient.phases").Add(uint64(len(schedule)))
	}
	n := sys.NumNodes()
	caps := Capacitances(sys.PN)

	theta := make([]float64, n)
	if opt.Theta0 != nil {
		if len(opt.Theta0) != n {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "transient.simulate",
				"transient: theta0 length %d, want %d", len(opt.Theta0), n)
		}
		copy(theta, opt.Theta0)
	} else {
		for i := range theta {
			theta[i] = sys.Cfg.Geom.AmbientK
		}
	}

	tr := &Trace{}
	record := func(t float64, i float64) {
		peak, tile := sys.PN.PeakSilicon(theta)
		tr.Samples = append(tr.Samples, Sample{TimeS: t, PeakK: peak, PeakTile: tile, Current: i})
	}
	now := 0.0
	record(now, schedule[0].Current)

	cOverDt := make([]float64, n)
	for i, c := range caps {
		cOverDt[i] = c / opt.Dt
	}

	step := 0
	for _, ph := range schedule {
		// Each phase runs in a closure so its span (one per
		// factor-and-integrate segment) closes on every exit path.
		res, err := func(ph Phase) (*Trace, error) {
			_, psp := r.StartSpanCtx(ctx, "transient.phase")
			psp.AnnotateFloat("current", ph.Current)
			psp.AnnotateFloat("duration_s", ph.Duration)
			defer psp.End()
			if ph.Duration <= 0 || ph.Current < 0 {
				return nil, ErrBadSchedule
			}
			// System matrix for this phase: (G - iD) + C/dt on the diagonal.
			m := sys.Matrix(ph.Current).AddScaledDiag(1, cOverDt)
			factStart := r.Now()
			fact, err := thermal.Factor(m, nil)
			if r != nil {
				r.ObserveSince("transient.phase_factor_ns", factStart)
			}
			if err != nil {
				// C/dt should dominate for reasonable dt; a failure means dt
				// is far too large for this current.
				return nil, fmt.Errorf("transient: implicit matrix not PD at i=%g (dt too large?): %w", ph.Current, err)
			}
			rhsConst := sys.RHS(ph.Current)
			steps := int(math.Ceil(ph.Duration / opt.Dt))
			rhs := make([]float64, n)
			for s := 0; s < steps; s++ {
				if step&63 == 0 {
					if err := ctx.Err(); err != nil {
						tr.Final = theta
						return tr, tecerr.Cancelled("transient.simulate", err)
					}
				}
				stepStart := r.Now()
				for i := range rhs {
					rhs[i] = rhsConst[i] + cOverDt[i]*theta[i]
				}
				if theta, err = fact.Solve(rhs); err != nil {
					return nil, err
				}
				if r != nil {
					r.Counter("transient.steps").Inc()
					r.ObserveSince("transient.step_ns", stepStart)
				}
				now += opt.Dt
				step++
				if step%opt.SampleEvery == 0 {
					record(now, ph.Current)
				}
				peak, _ := sys.PN.PeakSilicon(theta)
				if peak > opt.RunawayCeilingK {
					tr.Runaway = true
					tr.Final = theta
					record(now, ph.Current)
					return tr, nil
				}
			}
			return nil, nil
		}(ph)
		if res != nil || err != nil {
			return res, err
		}
	}
	tr.Final = theta
	return tr, nil
}

// PeakSeries extracts (time, peak Celsius) pairs for plotting.
func (tr *Trace) PeakSeries() (times, peaksC []float64) {
	times = make([]float64, len(tr.Samples))
	peaksC = make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		times[i] = s.TimeS
		peaksC[i] = material.KelvinToCelsius(s.PeakK)
	}
	return times, peaksC
}
