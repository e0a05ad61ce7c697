// Command runaway explores the thermal-runaway behaviour of Section
// V.C.1: it computes the supply-current limit lambda_m for the Alpha
// chip's greedy deployment and sweeps the transfer coefficient h_kl(i)
// and peak temperature toward the limit, regenerating Figure 6.
//
// Usage:
//
//	runaway [-points 16] [-transient] [-csv FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tecopt/internal/bench"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/transient"
)

func main() {
	points := flag.Int("points", 16, "number of current samples")
	doTransient := flag.Bool("transient", false, "also simulate a beyond-limit transient trajectory")
	csvPath := flag.String("csv", "", "write the sweep as CSV (current_A,hkl_KperW,peak_C) to this path")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("runaway", func(ctx context.Context) error {
		res, err := bench.RunFigure6Opts(bench.Figure6Options{Points: *points, Ctx: ctx})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFigure6(res))

		if *csvPath != "" {
			out, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "current_A,hkl_KperW,peak_C")
			for n := range res.Currents {
				fmt.Fprintf(out, "%g,%g,%g\n", res.Currents[n], res.Hkl[n], res.PeakC[n])
			}
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Printf("sweep written to %s\n", *csvPath)
		}

		if *doTransient {
			fmt.Printf("\ntransient at 1.2 * lambda_m = %.2f A (dynamic runaway):\n", 1.2*res.LambdaM)
			tr, err := transient.Simulate(res.System, []transient.Phase{{Current: 1.2 * res.LambdaM, Duration: 600}},
				transient.Options{Dt: 0.05, SampleEvery: 100, RunawayCeilingK: 600, Ctx: ctx})
			if err != nil {
				return err
			}
			for _, s := range tr.Samples {
				fmt.Printf("  t=%7.2fs peak=%8.2f C\n", s.TimeS, material.KelvinToCelsius(s.PeakK))
			}
			if tr.Runaway {
				fmt.Println("  -> thermal runaway: trajectory crossed the temperature ceiling")
			} else {
				fmt.Println("  -> no runaway within the horizon")
			}
		}
		return nil
	}))
}
