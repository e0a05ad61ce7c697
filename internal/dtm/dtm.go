// Package dtm implements dynamic thermal management policies on top of
// the transient package: runtime controllers that observe the peak
// silicon temperature and set the TEC supply current while the workload
// (per-tile power) varies over time.
//
// The paper's introduction motivates exactly this: "the active cooling
// system, the thermal monitoring system, and the architecture-level
// thermal management mechanisms can operate synergistically to achieve
// enhanced performance under a safe operating temperature." The paper
// itself only solves the static worst-case design problem; this package
// is the forward-looking extension — given the statically chosen
// deployment, compare runtime current policies (always-off, constant
// worst-case, hysteresis bang-bang, proportional) on energy and
// thermal-violation metrics.
package dtm

import (
	"context"
	"fmt"
	"math"

	"tecopt/internal/core"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
	"tecopt/internal/transient"
)

// Controller decides the TEC supply current from the observed peak
// silicon temperature. Implementations may keep state (hysteresis).
type Controller interface {
	// Next returns the supply current (A) for the next control period,
	// given the current time (s) and observed peak temperature (K).
	Next(timeS, peakK float64) float64
	// Name labels the policy in reports.
	Name() string
}

// AlwaysOff never powers the TECs (the passive baseline).
type AlwaysOff struct{}

// Next returns 0.
func (AlwaysOff) Next(_, _ float64) float64 { return 0 }

// Name returns the policy label.
func (AlwaysOff) Name() string { return "always-off" }

// Constant drives the worst-case optimal current at all times (the
// paper's static configuration running unconditionally).
type Constant struct{ CurrentA float64 }

// Next returns the constant current.
func (c Constant) Next(_, _ float64) float64 { return c.CurrentA }

// Name returns the policy label.
func (c Constant) Name() string { return fmt.Sprintf("constant-%.2fA", c.CurrentA) }

// BangBang switches the TECs fully on above OnAboveK and off below
// OffBelowK (OnAboveK > OffBelowK gives hysteresis).
type BangBang struct {
	OnAboveK  float64
	OffBelowK float64
	CurrentA  float64
	on        bool
}

// Next applies the hysteresis rule.
func (b *BangBang) Next(_, peakK float64) float64 {
	switch {
	case peakK >= b.OnAboveK:
		b.on = true
	case peakK <= b.OffBelowK:
		b.on = false
	}
	if b.on {
		return b.CurrentA
	}
	return 0
}

// Name returns the policy label.
func (b *BangBang) Name() string { return "bang-bang" }

// Proportional ramps the current linearly with the margin violation:
// i = Gain * (peak - SetpointK), clamped to [0, MaxA].
type Proportional struct {
	SetpointK float64
	Gain      float64 // A per kelvin
	MaxA      float64
}

// Next applies the proportional law.
func (p Proportional) Next(_, peakK float64) float64 {
	i := p.Gain * (peakK - p.SetpointK)
	if i < 0 {
		return 0
	}
	if i > p.MaxA {
		return p.MaxA
	}
	return i
}

// Name returns the policy label.
func (p Proportional) Name() string { return "proportional" }

// PowerPhase is one segment of a time-varying workload.
type PowerPhase struct {
	// Duration in seconds.
	Duration float64
	// TilePower is the per-tile power during the phase (W).
	TilePower []float64
}

// RunOptions configures a policy simulation. Runs start at the ambient
// temperature everywhere and sample at every control decision.
type RunOptions struct {
	// Dt is the integration step (default 0.01 s).
	Dt float64
	// ControlEvery is the controller period in steps (default 10).
	ControlEvery int
	// Ctx, when non-nil, cancels the simulation between steps. A
	// cancelled Run returns the partial result accumulated so far
	// alongside a tecerr.CodeCancelled error.
	Ctx context.Context
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Dt <= 0 {
		o.Dt = 0.01
	}
	if o.ControlEvery <= 0 {
		o.ControlEvery = 10
	}
	return o
}

// currentQuantumA rounds commanded currents, so a run factors its
// implicit matrix at few distinct currents.
const currentQuantumA = 0.05

// quantize rounds a command to the quantum and a finite negative one to
// zero; the stepper rejects a non-finite one.
func quantize(i float64) float64 {
	if i < 0 && num.IsFinite(i) {
		i = 0
	}
	return math.Round(i/currentQuantumA) * currentQuantumA
}

// Sample is one recorded point of a policy run.
type Sample struct {
	TimeS    float64
	PeakK    float64
	CurrentA float64
}

// RunResult aggregates a policy simulation.
type RunResult struct {
	Policy string
	// MaxPeakK is the highest peak temperature seen.
	MaxPeakK float64
	// TimeAboveLimitS accumulates time with peak > limit.
	TimeAboveLimitS float64
	// TECEnergyJ integrates the electrical input power.
	TECEnergyJ float64
	// Samples traces the run.
	Samples []Sample
}

// Run simulates the controller against the workload phases on the given
// deployed system, stepping a transient.Stepper at the quantized current
// last commanded. A bad Dt or duration fails as invalid input before
// the first step, a non-finite command at the step it would drive or,
// made last, at the end.
func Run(sys *core.System, phases []PowerPhase, ctrl Controller, limitK float64, opt RunOptions) (*RunResult, error) {
	opt = opt.withDefaults()
	if len(phases) == 0 {
		return nil, tecerr.New(tecerr.CodeInvalidInput, "dtm.run", "dtm: no workload phases")
	}
	st, err := transient.NewStepper(sys, opt.Dt)
	if err != nil {
		return nil, err
	}
	steps := make([]int, len(phases))
	for k, ph := range phases {
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
		ctx, sp = r.StartSpanCtx(ctx, "dtm.run")
		sp.Annotate("policy", ctrl.Name())
		defer sp.End()
		r.Counter("dtm.runs").Inc()
	}

	res := &RunResult{Policy: ctrl.Name()}
	peak, _ := sys.PN.PeakSilicon(st.Theta())
	current := quantize(ctrl.Next(st.TimeS(), peak))
	res.Samples = append(res.Samples, Sample{TimeS: st.TimeS(), PeakK: peak, CurrentA: current})
	res.MaxPeakK = peak

	for k, ph := range phases {
		load, err := sys.PN.PowerVector(ph.TilePower)
		if err != nil {
			return nil, err
		}
		amb := sys.PN.Net.BaseRHS()
		for i := range load {
			load[i] += amb[i]
		}
		for s := 0; s < steps[k]; s++ {
			if st.Steps()&63 == 0 && ctx.Err() != nil {
				return res, tecerr.Cancelled("dtm.run", ctx.Err())
			}
			if err := st.Step(current, load); err != nil {
				return nil, err
			}
			peak, _ = sys.PN.PeakSilicon(st.Theta())
			if peak > res.MaxPeakK {
				res.MaxPeakK = peak
			}
			if peak > limitK {
				res.TimeAboveLimitS += opt.Dt
			}
			res.TECEnergyJ += sys.TECPower(st.Theta(), current) * opt.Dt

			if st.Steps()%opt.ControlEvery == 0 {
				next := quantize(ctrl.Next(st.TimeS(), peak))
				if r != nil {
					r.Counter("dtm.control_decisions").Inc()
					if !num.ExactEqual(next, current) {
						r.Counter("dtm.current_changes").Inc()
						r.EventCtx(ctx, "dtm.current", next)
					}
					r.FloatGauge("dtm.last_current_a").Set(next)
				}
				current = next
				res.Samples = append(res.Samples, Sample{TimeS: st.TimeS(), PeakK: peak, CurrentA: current})
			}
		}
	}
	if !num.IsFinite(current) { // the last command drove no step
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "dtm.run", "dtm: %s commanded %g A", ctrl.Name(), current)
	}
	return res, nil
}
