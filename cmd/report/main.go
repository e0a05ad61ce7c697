// Command report runs every non-Table-I experiment — the model
// validation, Figures 6 and 7, and all four ablations — and prints a
// compact experiment log (the data behind EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tecopt/internal/bench"
	"tecopt/internal/obs"
)

func main() {
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("report", run))
}

// run executes every experiment in turn, printing each as it finishes.
func run(ctx context.Context) error {
	val, err := bench.RunValidation()
	if err != nil {
		return err
	}
	fmt.Printf("validation: matched worst %.3f C | fine worst %.3f C mean bias %.3f C | ref nodes %d\n\n",
		val.WorstDiffC, val.FineWorstDiffC, val.FineMeanBiasC, val.ReferenceNodes)

	f6, err := bench.RunFigure6Opts(bench.Figure6Options{Points: 12, Ctx: ctx})
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFigure6(f6))

	f7, err := bench.RunFigure7()
	if err != nil {
		return err
	}
	fmt.Printf("\nFigure 7(b): %d TEC sites %v\n%s\n", len(f7.Sites), f7.Sites, f7.Map)

	// The ablations study Figure 6's system: Alpha deployed at 85 C.
	opt, err := bench.RunOptimizerAblation(f6.System)
	if err != nil {
		return err
	}
	sol, err := bench.RunSolverAblation(f6.System)
	if err != nil {
		return err
	}
	cvx, err := bench.RunConvexityAblation(f6.System, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	lam, err := bench.RunLambdaToleranceAblation(f6.System, []float64{1e-3, 1e-6, 1e-10})
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatAblations(opt, sol, cvx, lam))

	contact, err := bench.RunContactSensitivity([]float64{0.25, 0.5, 1, 2, 4})
	if err != nil {
		return err
	}
	strategies, err := bench.RunDeploymentStrategies()
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatSensitivity(contact, strategies))

	workloads, err := bench.RunWorkloadValidation()
	if err != nil {
		return err
	}
	res, err := bench.RunResolutionAblation([]int{10, 20, 30})
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatValidationStudies(workloads, res))

	active, err := bench.RunActiveValidation()
	if err != nil {
		return err
	}
	fmt.Print(active)
	return nil
}
