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
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
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

// Stepper advances the package ODE by backward Euler with a fixed step
// dt, summing the right-hand side in the order
//
//	(C/dt + G - i*D) theta_{n+1} = (p + Joule(i)) + (C/dt) theta_n.
//
// It owns the field (ambient at time 0), C/dt and one factorization of
// the implicit matrix per current it is stepped at. C/dt and -i*D
// change only the diagonal, which the minimum-degree order does not
// read, so all of them take the order of the first.
type Stepper struct {
	sys     *core.System
	dt      float64
	cOverDt []float64
	theta   []float64
	rhs     []float64
	perm    []int
	facts   map[float64]*thermal.Factorization
	steps   int
	timeS   float64
	r       *obs.Registry
}

// NewStepper starts an integration of sys at ambient temperature with
// step dt (s). A dt that is not finite and positive is a
// tecerr.CodeInvalidInput error.
func NewStepper(sys *core.System, dt float64) (*Stepper, error) {
	if !num.IsFinite(dt) || dt <= 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "transient.step",
			"transient: time step %g, want finite and positive", dt)
	}
	n := sys.NumNodes()
	cOverDt := Capacitances(sys.PN)
	theta := make([]float64, n)
	for i := range theta {
		cOverDt[i] /= dt
		theta[i] = sys.Cfg.Geom.AmbientK
	}
	return &Stepper{sys: sys, dt: dt, cOverDt: cOverDt, theta: theta, rhs: make([]float64, n),
		facts: map[float64]*thermal.Factorization{}, r: obs.Enabled()}, nil
}

// StepsIn returns ceil(d/dt), the number of steps covering d seconds.
// A d that is not finite and positive, or that takes more steps than
// an int holds, is a tecerr.CodeInvalidInput error.
func (s *Stepper) StepsIn(d float64) (int, error) {
	steps := math.Ceil(d / s.dt)
	if !num.IsFinite(d) || d <= 0 || steps >= math.MaxInt {
		return 0, tecerr.Newf(tecerr.CodeInvalidInput, "transient.step",
			"transient: phase duration %g, want finite, positive and fewer than MaxInt steps of %g s", d, s.dt)
	}
	return int(steps), nil
}

// Step advances the field by dt at supply current i (A) under the load
// p: ambient legs plus tile powers, without Joule heat. A current that
// is not finite and non-negative is a tecerr.CodeInvalidInput error.
func (s *Stepper) Step(i float64, p []float64) error {
	if !num.IsFinite(i) || i < 0 {
		return tecerr.Newf(tecerr.CodeInvalidInput, "transient.step",
			"transient: supply current %g, want finite and non-negative", i)
	}
	fact, err := s.factor(i)
	if err != nil {
		return err
	}
	start := s.r.Now()
	copy(s.rhs, p)
	s.sys.Array.JoulePower(s.rhs, i)
	for k := range s.rhs {
		s.rhs[k] += s.cOverDt[k] * s.theta[k]
	}
	if s.theta, err = fact.Solve(s.rhs); err != nil {
		return err
	}
	s.steps++
	s.timeS += s.dt
	s.r.Counter("transient.steps").Inc()
	s.r.ObserveSince("transient.step_ns", start)
	return nil
}

// factor returns the factorization of C/dt + G - i*D, made on the first
// step at i.
func (s *Stepper) factor(i float64) (*thermal.Factorization, error) {
	if f, ok := s.facts[i]; ok {
		return f, nil
	}
	start := s.r.Now()
	m := s.sys.Matrix(i).AddScaledDiag(1, s.cOverDt)
	if s.perm == nil {
		s.perm = sparse.MinDegree(m)
	}
	f, err := thermal.Factor(m, s.perm)
	if err != nil {
		// C/dt dominates for reasonable dt; a failure means dt is far
		// too large for this current.
		return nil, fmt.Errorf("transient: implicit matrix not PD at i=%g (dt too large?): %w", i, err)
	}
	s.r.ObserveSince("transient.factor_ns", start)
	s.facts[i] = f
	return f, nil
}

// Theta returns the field after the last step. Callers must not modify
// it; a later step replaces it without writing to it.
func (s *Stepper) Theta() []float64 { return s.theta }

// Steps returns the number of steps taken.
func (s *Stepper) Steps() int { return s.steps }

// TimeS returns the integrated time (s), dt added once per step.
func (s *Stepper) TimeS() float64 { return s.timeS }

// Phase is one segment of a piecewise-constant supply-current schedule.
type Phase struct {
	// Current is the TEC supply current during the phase (A).
	Current float64
	// Duration is the phase length in seconds.
	Duration float64
}

// Options configures a simulation. Runs start at the ambient
// temperature everywhere.
type Options struct {
	// Dt is the time step (s). Default 1e-3.
	Dt float64
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

// ErrBadSchedule reports an empty schedule.
var ErrBadSchedule error = tecerr.New(tecerr.CodeInvalidInput, "transient.simulate",
	"transient: schedule must contain positive-duration phases")

// Simulate integrates the package ODE through the current schedule with
// backward Euler: (C/dt + G - i*D) theta_{n+1} = (C/dt) theta_n + p(i).
// Backward Euler is unconditionally stable for the stable regime and
// reproduces exponential growth in the runaway regime (for dt small
// against the unstable mode's time constant). A bad Dt, current or
// duration fails as invalid input before the first step.
func Simulate(sys *core.System, schedule []Phase, opt Options) (*Trace, error) {
	opt = opt.withDefaults()
	if len(schedule) == 0 {
		return nil, ErrBadSchedule
	}
	st, err := NewStepper(sys, opt.Dt)
	if err != nil {
		return nil, err
	}
	steps := make([]int, len(schedule))
	for k, ph := range schedule {
		if !num.IsFinite(ph.Current) || ph.Current < 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "transient.simulate",
				"transient: phase %d current %g, want finite and non-negative", k, ph.Current)
		}
		if steps[k], err = st.StepsIn(ph.Duration); err != nil {
			return nil, err
		}
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

	load := sys.RHS(0) // the System's own load; Step adds the Joule heat
	tr := &Trace{}
	record := func(i float64) {
		peak, tile := sys.PN.PeakSilicon(st.Theta())
		tr.Samples = append(tr.Samples, Sample{TimeS: st.TimeS(), PeakK: peak, PeakTile: tile, Current: i})
	}
	record(schedule[0].Current)
	for k, ph := range schedule {
		// Each phase runs in a closure so its span closes on every exit
		// path.
		res, err := func() (*Trace, error) {
			_, psp := r.StartSpanCtx(ctx, "transient.phase")
			psp.AnnotateFloat("current", ph.Current)
			psp.AnnotateFloat("duration_s", ph.Duration)
			defer psp.End()
			for s := 0; s < steps[k]; s++ {
				if st.Steps()&63 == 0 && ctx.Err() != nil {
					tr.Final = st.Theta()
					return tr, tecerr.Cancelled("transient.simulate", ctx.Err())
				}
				if err := st.Step(ph.Current, load); err != nil {
					return nil, err
				}
				if st.Steps()%opt.SampleEvery == 0 {
					record(ph.Current)
				}
				peak, _ := sys.PN.PeakSilicon(st.Theta())
				if peak > opt.RunawayCeilingK {
					tr.Runaway = true
					tr.Final = st.Theta()
					record(ph.Current)
					return tr, nil
				}
			}
			return nil, nil
		}()
		if res != nil || err != nil {
			return res, err
		}
	}
	tr.Final = st.Theta()
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
