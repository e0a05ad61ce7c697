package transient

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/core"
	"tecopt/internal/tec"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// smallSystem builds a fast 6x6 configuration with a central hotspot.
func smallSystem(t *testing.T, sites []int) *core.System {
	t.Helper()
	p := make([]float64, 36)
	for i := range p {
		p[i] = 0.1
	}
	p[14] = 1.0
	sys, err := core.NewSystem(core.Config{
		Cols: 6, Rows: 6, SpreaderCells: 8, SinkCells: 8,
		Device: tec.ChowdhuryDevice(), TilePower: p,
	}, sites)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCapacitancesPositive(t *testing.T) {
	sys := smallSystem(t, []int{14})
	caps := Capacitances(sys.PN)
	if len(caps) != sys.NumNodes() {
		t.Fatalf("caps length %d, want %d", len(caps), sys.NumNodes())
	}
	for i, c := range caps {
		if c <= 0 {
			t.Fatalf("node %d (%v) has capacitance %v", i, sys.PN.Net.Node(i).Kind, c)
		}
	}
	// The sink plate holds far more heat than a silicon tile.
	var silMax, snkMin float64
	snkMin = math.Inf(1)
	for i, c := range caps {
		switch sys.PN.Net.Node(i).Kind {
		case thermal.KindSilicon:
			if c > silMax {
				silMax = c
			}
		case thermal.KindSink:
			if c < snkMin {
				snkMin = c
			}
		}
	}
	if snkMin <= silMax {
		t.Fatalf("sink cell capacity %v not above silicon tile %v", snkMin, silMax)
	}
}

func TestSimulateRelaxesToSteadyState(t *testing.T) {
	sys := smallSystem(t, nil)
	steady, err := sys.SolveAt(0)
	if err != nil {
		t.Fatal(err)
	}
	steadyPeak, _ := sys.PN.PeakSilicon(steady)
	// The sink-to-ambient time constant is ~C_sink*R_conv ~ 80 s, so
	// settle over many minutes. Backward Euler is unconditionally
	// stable, so a coarse step is fine.
	tr, err := Simulate(sys, []Phase{{Current: 0, Duration: 600}}, Options{Dt: 0.5, SampleEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runaway {
		t.Fatal("stable system flagged as runaway")
	}
	last := tr.Samples[len(tr.Samples)-1]
	if math.Abs(last.PeakK-steadyPeak) > 0.2 {
		t.Fatalf("transient settled at %.3f K, steady state %.3f K", last.PeakK, steadyPeak)
	}
	// Monotone heat-up from ambient (no overshoot for this system).
	for i := 1; i < len(tr.Samples); i++ {
		if tr.Samples[i].PeakK < tr.Samples[i-1].PeakK-1e-6 {
			t.Fatalf("peak decreased during heat-up at sample %d", i)
		}
	}
}

func TestSimulateRunawayAboveLambda(t *testing.T) {
	sys := smallSystem(t, []int{14, 15})
	lambda, err := sys.RunawayLimit(core.RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Drive 20% beyond the runaway limit: the trajectory must blow up.
	tr, err := Simulate(sys, []Phase{{Current: lambda * 1.2, Duration: 300}}, Options{
		Dt: 0.02, SampleEvery: 50, RunawayCeilingK: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Runaway {
		last := tr.Samples[len(tr.Samples)-1]
		t.Fatalf("no runaway at i = 1.2*lambda_m; final peak %.1f K", last.PeakK)
	}
}

func TestSimulateStableJustBelowLambda(t *testing.T) {
	sys := smallSystem(t, []int{14, 15})
	lambda, err := sys.RunawayLimit(core.RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(sys, []Phase{{Current: lambda * 0.8, Duration: 30}}, Options{
		Dt: 0.05, SampleEvery: 20, RunawayCeilingK: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runaway {
		t.Fatal("runaway below lambda_m")
	}
}

func TestSimulateScheduleSwitching(t *testing.T) {
	sys := smallSystem(t, []int{14})
	// Warm up passive, then switch the TEC on: the hotspot must cool.
	tr, err := Simulate(sys, []Phase{
		{Current: 0, Duration: 40},
		{Current: 4, Duration: 40},
	}, Options{Dt: 0.05, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Find the peak temperature at the end of each phase.
	var endPassive, endActive float64
	for _, s := range tr.Samples {
		if s.TimeS <= 40 {
			endPassive = s.PeakK
		}
		endActive = s.PeakK
	}
	if endActive >= endPassive {
		t.Fatalf("switching the TEC on did not cool: %.3f -> %.3f K", endPassive, endActive)
	}
}

func TestSimulateValidation(t *testing.T) {
	sys := smallSystem(t, nil)
	if _, err := Simulate(sys, nil, Options{}); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := Simulate(sys, []Phase{{Current: 0, Duration: -1}}, Options{}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := Simulate(sys, []Phase{{Current: -1, Duration: 1}}, Options{}); err == nil {
		t.Error("negative current accepted")
	}
	// Non-finite durations, currents and steps are rejected as invalid
	// input before the first step, also in a late phase.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name     string
		schedule []Phase
		opt      Options
	}{
		{"infinite duration", []Phase{{Current: 0, Duration: inf}}, Options{}},
		{"NaN duration", []Phase{{Current: 0, Duration: nan}}, Options{}},
		{"step count beyond int", []Phase{{Current: 0, Duration: 1e20}}, Options{Dt: 1}},
		{"NaN current", []Phase{{Current: nan, Duration: 1}}, Options{}},
		{"infinite current", []Phase{{Current: inf, Duration: 1}}, Options{}},
		{"NaN dt", []Phase{{Current: 0, Duration: 1}}, Options{Dt: nan}},
		{"infinite dt", []Phase{{Current: 0, Duration: 1}}, Options{Dt: inf}},
		{"bad late phase", []Phase{{Current: 0, Duration: 1}, {Current: 0, Duration: nan}}, Options{}},
	} {
		tr, err := Simulate(sys, tc.schedule, tc.opt)
		if code := tecerr.CodeOf(err); err == nil || code != tecerr.CodeInvalidInput {
			t.Errorf("%s: err = %v (code %v), want invalid input", tc.name, err, code)
		}
		if tr != nil {
			t.Errorf("%s: returned a trace of %d samples", tc.name, len(tr.Samples))
		}
	}
}

func TestPeakSeries(t *testing.T) {
	sys := smallSystem(t, nil)
	tr, err := Simulate(sys, []Phase{{Current: 0, Duration: 50}}, Options{Dt: 0.05, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	times, peaks := tr.PeakSeries()
	if len(times) != len(tr.Samples) || len(peaks) != len(times) {
		t.Fatal("PeakSeries length mismatch")
	}
	if peaks[0] >= peaks[len(peaks)-1] {
		t.Fatal("no heat-up visible in series")
	}
	if peaks[0] < 40 || peaks[0] > 50 {
		t.Fatalf("initial peak %.2f C, want ~ambient 45 C", peaks[0])
	}
}

// Property: backward Euler is unconditionally stable below lambda_m —
// for random step sizes and currents the trajectory stays bounded by the
// corresponding steady state (within tolerance).
func TestBackwardEulerUnconditionallyStableProperty(t *testing.T) {
	sys := smallSystem(t, []int{14, 15})
	lambda, err := sys.RunawayLimit(core.RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dt := math.Pow(10, -2+3*rng.Float64()) // 0.01 .. 10 s
		i := rng.Float64() * 0.9 * lambda
		steady, err := sys.SolveAt(i)
		if err != nil {
			return false
		}
		steadyPeak, _ := sys.PN.PeakSilicon(steady)
		tr, err := Simulate(sys, []Phase{{Current: i, Duration: 40 * dt}}, Options{
			Dt: dt, SampleEvery: 5, RunawayCeilingK: steadyPeak + 100,
		})
		if err != nil {
			return false
		}
		if tr.Runaway {
			return false
		}
		// Heat-up from ambient must never overshoot the steady state by
		// more than numerical noise.
		for _, s := range tr.Samples {
			if s.PeakK > steadyPeak+0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
