// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark prints
// its headline numbers through b.ReportMetric so a -bench run doubles as
// an experiment log; EXPERIMENTS.md records paper-vs-measured values.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package tecopt_test

import (
	"math/rand"
	"testing"

	"tecopt"
	"tecopt/internal/bench"
	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/power"
	"tecopt/internal/sparse"
	"tecopt/internal/thermal"
)

// BenchmarkTableI_Alpha regenerates the Alpha row of Table I (paper:
// 91.8 C no-TEC, 16 TECs, 6.10 A, 1.31 W, full-cover 90.2 C, loss 5.2 C).
func BenchmarkTableI_Alpha(b *testing.B) {
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	var row *bench.TableIRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.RunTableIRow("Alpha", p, bench.TableIOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.NoTECPeakC, "noTECpeak_C")
	b.ReportMetric(float64(row.NumTECs), "TECs")
	b.ReportMetric(row.IOptA, "Iopt_A")
	b.ReportMetric(row.PTECW, "Ptec_W")
	b.ReportMetric(row.FullCoverMinPeakC, "fullcover_C")
	b.ReportMetric(row.SwingLossC, "swingloss_C")
}

// BenchmarkTableI_Hypothetical regenerates the HC01..HC10 rows (paper:
// peaks 89.4-95.3 C, 11-18 TECs, two failures at 85 C, avg loss 4.2 C).
func BenchmarkTableI_Hypothetical(b *testing.B) {
	chips, err := power.GenerateHCSuite(power.DefaultHCSpec())
	if err != nil {
		b.Fatal(err)
	}
	var rows []*bench.TableIRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, c := range chips {
			row, err := bench.RunTableIRow(c.Name, c.TilePower, bench.TableIOptions{})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	b.ReportMetric(bench.AvgSwingLossC(rows), "avgswingloss_C")
	b.ReportMetric(bench.MaxCoolingSwingC(rows), "maxswing_C")
	b.ReportMetric(float64(len(bench.FailuresAtBase(rows))), "failures_at_85C")
}

// BenchmarkFigure6_RunawaySweep regenerates the h_kl(i) runaway curve
// (paper Figure 6: nonnegative, convex, diverging at lambda_m).
func BenchmarkFigure6_RunawaySweep(b *testing.B) {
	var res *bench.Figure6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFigure6Opts(bench.Figure6Options{Points: 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LambdaM, "lambda_m_A")
	b.ReportMetric(res.Hkl[0], "hkl_at_0_KperW")
}

// BenchmarkFigure7_DeploymentMap regenerates the deployment map of
// Figure 7(b) (paper: 16 shaded tiles over the high-density units).
func BenchmarkFigure7_DeploymentMap(b *testing.B) {
	var res *bench.Figure7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunFigure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Sites)), "TECs")
}

// BenchmarkValidation_RefSolver reproduces the Section-VI model
// validation (paper: worst-case difference vs HotSpot 4.1 below 1.5 C).
func BenchmarkValidation_RefSolver(b *testing.B) {
	var res *bench.ValidationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunValidation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WorstDiffC, "worstdiff_C")
	b.ReportMetric(res.FineWorstDiffC, "fine_worstdiff_C")
}

// BenchmarkValidation_PerWorkload repeats the validation for each of the
// ten synthetic SPEC traces (the paper's "set of power traces" wording).
func BenchmarkValidation_PerWorkload(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunWorkloadValidation()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.WorstDiffC > worst {
				worst = r.WorstDiffC
			}
		}
	}
	b.ReportMetric(worst, "worstdiff_C")
}

// BenchmarkValidation_ActiveTEC validates the compact model against the
// reference solver WITH powered TEC devices (extension beyond the
// paper's passive-only HotSpot check).
func BenchmarkValidation_ActiveTEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunActiveValidation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Resolution sweeps the compact model's coarse-layer
// resolution.
func BenchmarkAblation_Resolution(b *testing.B) {
	var rows []bench.ResolutionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunResolutionAblation([]int{10, 20, 30})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].PeakC-rows[0].PeakC, "peak_shift_C")
}

// BenchmarkConjecture1 runs the randomized Conjecture-1 campaign
// (paper: millions of matrices, zero violations).
func BenchmarkConjecture1(b *testing.B) {
	var violations int
	var pairs int
	for i := 0; i < b.N; i++ {
		rep := tecopt.VerifyConjecture1(rand.New(rand.NewSource(int64(i+1))),
			tecopt.ConjectureOptions{Matrices: 200, MaxOrder: 16, PairsPerMatrix: 8})
		violations += rep.Violations
		pairs += rep.PairsChecked
	}
	if violations != 0 {
		b.Fatalf("Conjecture 1 violated %d times", violations)
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkEndToEnd_Alpha times the full configuration flow the paper
// bounds at "less than 3 minutes".
func BenchmarkEndToEnd_Alpha(b *testing.B) {
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	cfg := tecopt.Config{TilePower: p}
	_ = f
	_ = g
	for i := 0; i < b.N; i++ {
		res, err := tecopt.GreedyDeploy(cfg, tecopt.CelsiusToKelvin(85), tecopt.CurrentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success {
			b.Fatal("deployment failed")
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblation_Optimizer compares golden-section, Brent and the
// paper's gradient descent for the current setting.
func BenchmarkAblation_Optimizer(b *testing.B) {
	sys := alphaDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunOptimizerAblation(sys)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing methods")
		}
	}
}

// BenchmarkAblation_Solver compares the minimum-degree sparse Cholesky
// against preconditioned CG for the steady-state solves.
func BenchmarkAblation_Solver(b *testing.B) {
	sys := alphaDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunSolverAblation(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ConvexityCheckRanges sweeps the Theorem-4 subrange
// count (runtime/pessimism trade-off).
func BenchmarkAblation_ConvexityCheckRanges(b *testing.B) {
	sys := alphaDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunConvexityAblation(sys, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[len(rows)-1].Certified {
			b.Fatal("finest partition failed to certify")
		}
	}
}

// BenchmarkAblation_LambdaTolerance sweeps the lambda_m binary-search
// tolerance.
func BenchmarkAblation_LambdaTolerance(b *testing.B) {
	sys := alphaDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunLambdaToleranceAblation(sys, []float64{1e-4, 1e-8, 1e-12}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ContactSensitivity sweeps the TEC contact quality —
// the g_h role in runaway the paper highlights (Section IV.B).
func BenchmarkAblation_ContactSensitivity(b *testing.B) {
	var rows []bench.ContactSensitivityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunContactSensitivity([]float64{0.5, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].LambdaM, "nominal_lambda_m_A")
	b.ReportMetric(rows[1].SwingC, "nominal_swing_C")
}

// BenchmarkAblation_DeploymentStrategy compares the greedy deployment
// against equal-budget heuristics.
func BenchmarkAblation_DeploymentStrategy(b *testing.B) {
	var rows []bench.DeploymentStrategyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunDeploymentStrategies()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PeakC, "greedy_peak_C")
}

// BenchmarkExtension_MultiPin quantifies the multi-pin extension (beyond
// the paper's single-pin constraint): peak-temperature gain of 2 current
// zones over the shared current on a two-hotspot chip.
func BenchmarkExtension_MultiPin(b *testing.B) {
	p := make([]float64, 144)
	for i := range p {
		p[i] = 0.06
	}
	for _, t := range []int{38, 39, 50, 51} {
		p[t] = 0.65
	}
	for _, t := range []int{92, 93, 104, 105} {
		p[t] = 0.35
	}
	sites := []int{38, 39, 50, 51, 92, 93, 104, 105}
	var gain float64
	for i := 0; i < b.N; i++ {
		sys, err := tecopt.NewSystem(tecopt.Config{TilePower: p}, sites)
		if err != nil {
			b.Fatal(err)
		}
		single, err := sys.OptimizeCurrent(tecopt.CurrentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		zoneOf, err := tecopt.ZoneByColumns(sys, 2)
		if err != nil {
			b.Fatal(err)
		}
		zs, err := tecopt.NewZonedSystem(sys, zoneOf)
		if err != nil {
			b.Fatal(err)
		}
		zoned, err := zs.OptimizeZoned(tecopt.ZonedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gain = single.PeakK - zoned.PeakK
	}
	b.ReportMetric(gain, "gain_C")
}

// alphaDeployment is the system the ablations study: the Alpha chip,
// greedily deployed at 85 C.
func alphaDeployment(b *testing.B) *core.System {
	b.Helper()
	f, g := floorplan.Alpha21364Grid()
	dep, err := core.GreedyDeploy(core.Config{TilePower: power.AlphaTilePowers(f, g)},
		material.CelsiusToKelvin(85), core.CurrentOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return dep.System
}

// --- Solver micro-benchmarks --------------------------------------------

func alphaSystem(b *testing.B) *core.System {
	b.Helper()
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	sites := []int{100, 101, 102, 103, 112, 113, 114}
	sys, err := core.NewSystem(core.Config{TilePower: p}, sites)
	if err != nil {
		b.Fatal(err)
	}
	_ = f
	_ = g
	return sys
}

// BenchmarkSteadySolve_Cholesky times one ordering, factor and solve of
// the ~1100-node compact model on the minimum-degree sparse Cholesky
// direct path.
func BenchmarkSteadySolve_Cholesky(b *testing.B) {
	sys := alphaSystem(b)
	m := sys.Matrix(6)
	rhs := sys.RHS(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.SolveSteady(m, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadySolve_CG times the same solve with IC(0)-preconditioned
// conjugate gradients.
func BenchmarkSteadySolve_CG(b *testing.B) {
	sys := alphaSystem(b)
	m := sys.Matrix(6)
	rhs := sys.RHS(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.SolveCG(m, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(m)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambdaM times the runaway-limit binary search.
func BenchmarkLambdaM(b *testing.B) {
	sys := alphaSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunawayLimit(core.RunawayOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCurrentOptimization times one convex current setting.
func BenchmarkCurrentOptimization(b *testing.B) {
	sys := alphaSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.OptimizeCurrent(core.CurrentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudy_Conditioning sweeps kappa_2(G - i*D) toward lambda_m —
// the numerical face of Theorem 2's divergence.
func BenchmarkStudy_Conditioning(b *testing.B) {
	sys := alphaSystem(b)
	var conds []float64
	for i := 0; i < b.N; i++ {
		var err error
		_, conds, err = sys.ConditionSweep([]float64{0, 0.9, 0.999})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(conds[0], "cond_at_0")
	b.ReportMetric(conds[len(conds)-1], "cond_at_0.999lambda")
}

// BenchmarkReferenceSolve times the fine-grid reference solver used in
// the validation experiment.
func BenchmarkReferenceSolve(b *testing.B) {
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	geom := material.DefaultPackage()
	_ = f
	_ = g
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tecopt.ReferenceSolve(geom, 12, 12, p, tecopt.ReferenceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
