// Command dtmsim simulates runtime TEC current policies against a
// time-varying workload (the paper's introduction vision: active
// cooling + thermal monitoring + DTM operating synergistically).
//
// The workload alternates between the chip's worst-case profile and an
// idle fraction of it, or replays a .ptrace file sample-by-sample.
//
// Usage:
//
//	dtmsim [-chip alpha] [-policy all|off|constant|bangbang|proportional]
//	       [-limit 85] [-busy 120] [-idlefrac 0.25] [-cycles 2]
//	       [-flp chip.flp -ptrace chip.ptrace -period 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/dtm"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

func main() {
	chip := flag.String("chip", "alpha", "benchmark chip: alpha, hc01..hc10, or hc:<seed>")
	// -policy is checked at flag.Parse, so a bad value exits 2 like an
	// unknown flag.
	order := []string{"off", "constant", "bangbang", "proportional"}
	policy := "all"
	flag.Func("policy", `policy: all, off, constant, bangbang or proportional (default "all")`, func(v string) error {
		if v != "all" && !slices.Contains(order, v) {
			return fmt.Errorf("want all, off, constant, bangbang or proportional")
		}
		policy = v
		return nil
	})
	limitC := flag.Float64("limit", 85, "thermal limit (C)")
	busyS := flag.Float64("busy", 120, "busy/idle phase length (s)")
	idleFrac := flag.Float64("idlefrac", 0.25, "idle power as a fraction of worst case")
	cycles := flag.Int("cycles", 2, "number of busy/idle cycles")
	flpPath := flag.String("flp", "", "custom floorplan (.flp); replays -ptrace as the workload")
	ptracePath := flag.String("ptrace", "", "power trace for -flp")
	periodS := flag.Float64("period", 30, "seconds per trace sample when replaying a .ptrace")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("dtmsim", func(ctx context.Context) error {
		loaded, err := chipload.Load(chipload.Spec{Name: *chip, FLP: *flpPath, Ptrace: *ptracePath})
		if err != nil {
			return err
		}
		cfg := core.Config{Geom: loaded.Geom, Cols: loaded.Grid.Cols, Rows: loaded.Grid.Rows, TilePower: loaded.TilePower}
		if err := cfg.Validate(); err != nil {
			return err
		}
		dep, err := core.GreedyDeploy(cfg, material.CelsiusToKelvin(*limitC), core.CurrentOptions{Ctx: ctx})
		if err != nil {
			return err
		}
		fmt.Printf("chip %s: %d TECs deployed, worst-case I_opt %.2f A\n",
			loaded.Name, len(dep.Sites), dep.Current.IOpt)

		// Workload phases.
		var phases []dtm.PowerPhase
		if *flpPath != "" && *ptracePath != "" {
			pf, err := os.Open(*ptracePath)
			if err != nil {
				return err
			}
			tr, err := power.ParsePtrace(pf)
			pf.Close()
			if err != nil {
				return err
			}
			phases, err = dtm.PhasesFromTrace(tr, loaded.Floorplan, loaded.Grid, *periodS)
			if err != nil {
				return err
			}
		} else {
			idle := make([]float64, len(loaded.TilePower))
			for i, p := range loaded.TilePower {
				idle[i] = *idleFrac * p
			}
			for c := 0; c < *cycles; c++ {
				phases = append(phases,
					dtm.PowerPhase{Duration: *busyS, TilePower: loaded.TilePower},
					dtm.PowerPhase{Duration: *busyS, TilePower: idle},
				)
			}
		}

		limit := material.CelsiusToKelvin(*limitC)
		controllers := map[string]dtm.Controller{
			"off":      dtm.AlwaysOff{},
			"constant": dtm.Constant{CurrentA: dep.Current.IOpt},
			"bangbang": &dtm.BangBang{
				OnAboveK:  limit - 5,
				OffBelowK: limit - 17,
				CurrentA:  dep.Current.IOpt,
			},
			"proportional": dtm.Proportional{
				SetpointK: limit - 13,
				Gain:      2,
				MaxA:      dep.Current.IOpt,
			},
		}

		fmt.Printf("%-18s %12s %16s %14s\n", "policy", "max peak C", "time>limit (s)", "TEC energy J")
		for _, name := range order {
			if policy != "all" && policy != name {
				continue
			}
			res, err := dtm.Run(dep.System, phases, controllers[name], limit,
				dtm.RunOptions{Dt: 0.05, ControlEvery: 10, Ctx: ctx})
			if err != nil {
				if res != nil {
					// Flush the partial policy run before failing.
					fmt.Printf("%-18s %12.2f %16.1f %14.1f (partial)\n",
						res.Policy, material.KelvinToCelsius(res.MaxPeakK), res.TimeAboveLimitS, res.TECEnergyJ)
				}
				return err
			}
			fmt.Printf("%-18s %12.2f %16.1f %14.1f\n",
				res.Policy, material.KelvinToCelsius(res.MaxPeakK), res.TimeAboveLimitS, res.TECEnergyJ)
		}
		return nil
	}))
}
