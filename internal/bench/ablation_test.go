package bench

import (
	"math"
	"strings"
	"sync"
	"testing"

	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/power"
)

// alphaDeployment is the system every ablation studies, the Alpha chip
// greedily deployed at 85 C, deployed once for all the tests here.
var alphaDeployment = sync.OnceValues(func() (*core.System, error) {
	f, g := floorplan.Alpha21364Grid()
	dep, err := core.GreedyDeploy(core.Config{TilePower: power.AlphaTilePowers(f, g)},
		material.CelsiusToKelvin(85), core.CurrentOptions{})
	if err != nil {
		return nil, err
	}
	return dep.System, nil
})

func deployedAlpha(t *testing.T) *core.System {
	t.Helper()
	sys, err := alphaDeployment()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// skipIfRace skips the full-pipeline report tests under the race
// detector. The whole package is single-goroutine, so -race adds no
// coverage here, only a ~20x slowdown that pushes the full-size table
// generation past the package test timeout.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("full-size report generation is too slow under -race; run without -race for coverage")
	}
}

func TestRunOptimizerAblation(t *testing.T) {
	skipIfRace(t)
	rows, err := RunOptimizerAblation(deployedAlpha(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All methods must find (near) the same minimum peak.
	base := rows[0].PeakC
	for _, r := range rows[1:] {
		if math.Abs(r.PeakC-base) > 0.05 {
			t.Errorf("%s peak %.3f C deviates from %s %.3f C", r.Method, r.PeakC, rows[0].Method, base)
		}
	}
	for _, r := range rows {
		if r.Evaluations <= 0 {
			t.Errorf("%s: no evaluations recorded", r.Method)
		}
	}
}

func TestRunSolverAblation(t *testing.T) {
	skipIfRace(t)
	rows, err := RunSolverAblation(deployedAlpha(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The two backends must agree tightly.
	if rows[1].MaxDiffC > 1e-4 {
		t.Errorf("solver disagreement %.2e C", rows[1].MaxDiffC)
	}
	if math.Abs(rows[0].PeakC-rows[1].PeakC) > 1e-4 {
		t.Errorf("peaks differ: %.6f vs %.6f", rows[0].PeakC, rows[1].PeakC)
	}
}

func TestRunConvexityAblation(t *testing.T) {
	skipIfRace(t)
	rows, err := RunConvexityAblation(deployedAlpha(t), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// The paper notes the single-range check "would be quite pessimistic
	// since eta'(0) is a very loose lower bound" — so ranges=1 may fail
	// to certify (we log it), while a modest partition must certify.
	for _, r := range rows {
		t.Logf("ranges=%d certified=%v (%v)", r.Ranges, r.Certified, r.Runtime)
		if r.Ranges >= 4 && !r.Certified {
			t.Errorf("ranges=%d: physical system not certified", r.Ranges)
		}
	}
}

func TestRunLambdaToleranceAblation(t *testing.T) {
	skipIfRace(t)
	rows, err := RunLambdaToleranceAblation(deployedAlpha(t), []float64{1e-3, 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tightening the tolerance must not move lambda_m by more than the
	// loose tolerance itself.
	rel := math.Abs(rows[0].LambdaM-rows[1].LambdaM) / rows[1].LambdaM
	if rel > 2e-3 {
		t.Errorf("lambda_m moved %.2e with tolerance", rel)
	}
}

func TestFormatAblations(t *testing.T) {
	skipIfRace(t)
	opt, err := RunOptimizerAblation(deployedAlpha(t))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := RunSolverAblation(deployedAlpha(t))
	if err != nil {
		t.Fatal(err)
	}
	cvx, err := RunConvexityAblation(deployedAlpha(t), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	lam, err := RunLambdaToleranceAblation(deployedAlpha(t), []float64{1e-6})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatAblations(opt, sol, cvx, lam)
	for _, want := range []string{"optimizer", "solver", "subrange", "tolerance"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q section", want)
		}
	}
}
