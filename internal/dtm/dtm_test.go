package dtm

import (
	"math"
	"testing"

	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/tec"
	"tecopt/internal/tecerr"
)

// smallSystem is a fast 6x6 deployed system with a central hotspot.
func smallSystem(t *testing.T) (*core.System, []float64, []float64) {
	t.Helper()
	busy := make([]float64, 36)
	idle := make([]float64, 36)
	for i := range busy {
		busy[i] = 0.12
		idle[i] = 0.03
	}
	busy[14] = 1.1
	busy[15] = 0.8
	idle[14] = 0.1
	sys, err := core.NewSystem(core.Config{
		Cols: 6, Rows: 6, SpreaderCells: 8, SinkCells: 8,
		Device: tec.ChowdhuryDevice(), TilePower: busy,
	}, []int{14, 15})
	if err != nil {
		t.Fatal(err)
	}
	return sys, busy, idle
}

func TestControllersBasics(t *testing.T) {
	if !num.IsZero((AlwaysOff{}).Next(0, 400)) {
		t.Error("AlwaysOff returned current")
	}
	if !num.ExactEqual((Constant{CurrentA: 5}).Next(0, 0), 5) {
		t.Error("Constant wrong")
	}
	p := Proportional{SetpointK: 350, Gain: 2, MaxA: 6}
	if !num.IsZero(p.Next(0, 349)) {
		t.Error("Proportional below setpoint must be 0")
	}
	if got := p.Next(0, 351); math.Abs(got-2) > 1e-12 {
		t.Errorf("Proportional = %v, want 2", got)
	}
	if !num.ExactEqual(p.Next(0, 1000), 6) {
		t.Error("Proportional not clamped")
	}
	bb := &BangBang{OnAboveK: 360, OffBelowK: 355, CurrentA: 4}
	if !num.IsZero(bb.Next(0, 350)) {
		t.Error("BangBang on too early")
	}
	if !num.ExactEqual(bb.Next(0, 361), 4) {
		t.Error("BangBang failed to switch on")
	}
	// Hysteresis: stays on between the thresholds.
	if !num.ExactEqual(bb.Next(0, 357), 4) {
		t.Error("BangBang dropped out inside hysteresis band")
	}
	if !num.IsZero(bb.Next(0, 354)) {
		t.Error("BangBang failed to switch off")
	}
	for _, c := range []Controller{AlwaysOff{}, Constant{CurrentA: 1}, &BangBang{}, Proportional{}} {
		if c.Name() == "" {
			t.Error("controller without name")
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys, busy, _ := smallSystem(t)
	if _, err := Run(sys, nil, AlwaysOff{}, 400, RunOptions{}); err == nil {
		t.Error("no phases accepted")
	}
	if _, err := Run(sys, []PowerPhase{{Duration: -1, TilePower: busy}}, AlwaysOff{}, 400, RunOptions{}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := Run(sys, []PowerPhase{{Duration: 1, TilePower: []float64{1}}}, AlwaysOff{}, 400, RunOptions{}); err == nil {
		t.Error("wrong power length accepted")
	}
	// Non-finite durations and steps are invalid input before the first
	// step, also in a late phase, and so is a non-finite command whenever
	// it is made.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		phases []PowerPhase
		ctrl   Controller
		opt    RunOptions
	}{
		{"infinite duration", []PowerPhase{{Duration: inf, TilePower: busy}}, AlwaysOff{}, RunOptions{}},
		{"NaN duration", []PowerPhase{{Duration: nan, TilePower: busy}}, AlwaysOff{}, RunOptions{}},
		{"step count beyond int", []PowerPhase{{Duration: 1e20, TilePower: busy}}, AlwaysOff{}, RunOptions{Dt: 1}},
		{"NaN dt", []PowerPhase{{Duration: 1, TilePower: busy}}, AlwaysOff{}, RunOptions{Dt: nan}},
		{"infinite dt", []PowerPhase{{Duration: 1, TilePower: busy}}, AlwaysOff{}, RunOptions{Dt: inf}},
		{"bad late phase", []PowerPhase{{Duration: 1, TilePower: busy}, {Duration: inf, TilePower: busy}}, AlwaysOff{}, RunOptions{}},
		{"NaN command", []PowerPhase{{Duration: 1, TilePower: busy}}, Constant{CurrentA: nan}, RunOptions{}},
		{"infinite command", []PowerPhase{{Duration: 1, TilePower: busy}}, Constant{CurrentA: inf}, RunOptions{}},
		{"negative infinite command", []PowerPhase{{Duration: 1, TilePower: busy}}, Constant{CurrentA: -inf}, RunOptions{}},
		{"NaN command mid-run", []PowerPhase{{Duration: 1, TilePower: busy}}, lateCommand{afterS: 0.5, currentA: nan}, RunOptions{Dt: 0.01}},
		{"NaN last command", []PowerPhase{{Duration: 1, TilePower: busy}}, lateCommand{afterS: 0.95, currentA: nan}, RunOptions{Dt: 0.01}},
	} {
		res, err := Run(sys, tc.phases, tc.ctrl, 400, tc.opt)
		if code := tecerr.CodeOf(err); err == nil || code != tecerr.CodeInvalidInput {
			t.Errorf("%s: err = %v (code %v), want invalid input", tc.name, err, code)
		}
		if res != nil {
			t.Errorf("%s: returned a result of %d samples", tc.name, len(res.Samples))
		}
	}
}

// lateCommand commands 1 A until afterS, then currentA.
type lateCommand struct{ afterS, currentA float64 }

func (c lateCommand) Next(timeS, _ float64) float64 {
	if timeS >= c.afterS {
		return c.currentA
	}
	return 1
}

func (lateCommand) Name() string { return "late" }

func TestConstantCoolsBelowAlwaysOff(t *testing.T) {
	sys, busy, _ := smallSystem(t)
	phases := []PowerPhase{{Duration: 120, TilePower: busy}}
	limit := material.CelsiusToKelvin(85)
	opt := RunOptions{Dt: 0.05, ControlEvery: 10}

	off, err := Run(sys, phases, AlwaysOff{}, limit, opt)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(sys, phases, Constant{CurrentA: 4}, limit, opt)
	if err != nil {
		t.Fatal(err)
	}
	if on.MaxPeakK >= off.MaxPeakK {
		t.Fatalf("constant current did not cool: %.2f vs %.2f K", on.MaxPeakK, off.MaxPeakK)
	}
	if !num.IsZero(off.TECEnergyJ) {
		t.Fatalf("always-off consumed %.3f J", off.TECEnergyJ)
	}
	if on.TECEnergyJ <= 0 {
		t.Fatal("constant policy consumed no energy")
	}
}

func TestBangBangSavesEnergy(t *testing.T) {
	// Alternating busy/idle workload: the bang-bang policy should cut
	// TEC energy versus always-on while keeping the peak comparable.
	sys, busy, idle := smallSystem(t)
	phases := []PowerPhase{
		{Duration: 60, TilePower: busy},
		{Duration: 60, TilePower: idle},
		{Duration: 60, TilePower: busy},
		{Duration: 60, TilePower: idle},
	}
	// Pick thresholds around the steady busy peak with TEC on.
	limit := material.CelsiusToKelvin(85)
	opt := RunOptions{Dt: 0.05, ControlEvery: 5}

	always, err := Run(sys, phases, Constant{CurrentA: 4}, limit, opt)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Run(sys, phases, &BangBang{
		OnAboveK:  material.CelsiusToKelvin(70),
		OffBelowK: material.CelsiusToKelvin(65),
		CurrentA:  4,
	}, limit, opt)
	if err != nil {
		t.Fatal(err)
	}
	if bb.TECEnergyJ >= always.TECEnergyJ {
		t.Fatalf("bang-bang energy %.2f J >= always-on %.2f J", bb.TECEnergyJ, always.TECEnergyJ)
	}
	// During idle the controller must actually switch off at some point.
	sawOff := false
	for _, s := range bb.Samples {
		if num.IsZero(s.CurrentA) && s.TimeS > 60 {
			sawOff = true
			break
		}
	}
	if !sawOff {
		t.Fatal("bang-bang never switched off during idle")
	}
}

func TestProportionalTracksSetpoint(t *testing.T) {
	sys, busy, _ := smallSystem(t)
	limit := material.CelsiusToKelvin(85)
	// Run to near-steady state under proportional control.
	setpoint := material.CelsiusToKelvin(60)
	res, err := Run(sys, []PowerPhase{{Duration: 400, TilePower: busy}},
		Proportional{SetpointK: setpoint, Gain: 1.5, MaxA: 8},
		limit, RunOptions{Dt: 0.1, ControlEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1]
	// The controller holds the peak above the setpoint (it cannot
	// overcool: i -> 0 below setpoint) but close to it given enough gain.
	if last.PeakK < setpoint-0.5 {
		t.Fatalf("peak %.2f K below setpoint %.2f K", last.PeakK, setpoint)
	}
	if last.PeakK > setpoint+8 {
		t.Fatalf("proportional control ineffective: peak %.2f K vs setpoint %.2f K", last.PeakK, setpoint)
	}
	if last.CurrentA <= 0 {
		t.Fatal("controller idle at steady state above setpoint")
	}
}

func TestTimeAboveLimitAccounting(t *testing.T) {
	sys, busy, _ := smallSystem(t)
	// Impossible limit: every step counts.
	res, err := Run(sys, []PowerPhase{{Duration: 10, TilePower: busy}}, AlwaysOff{},
		material.CelsiusToKelvin(-100), RunOptions{Dt: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TimeAboveLimitS-10) > 0.2 {
		t.Fatalf("TimeAboveLimit = %.2f s, want ~10", res.TimeAboveLimitS)
	}
	// Unreachable limit: zero.
	res, err = Run(sys, []PowerPhase{{Duration: 10, TilePower: busy}}, AlwaysOff{},
		material.CelsiusToKelvin(1000), RunOptions{Dt: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !num.IsZero(res.TimeAboveLimitS) {
		t.Fatalf("TimeAboveLimit = %v, want 0", res.TimeAboveLimitS)
	}
}
