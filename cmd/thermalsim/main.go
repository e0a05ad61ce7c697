// Command thermalsim performs steady-state thermal analysis of a chip
// package, optionally with TEC devices at a fixed supply current, and
// prints a per-tile temperature map (the raw model of Section IV).
//
// Usage:
//
//	thermalsim [-chip alpha|hcNN] [-tec 100,101,102] [-current 6.0] [-grid]
//	           [-flp chip.flp -ptrace chip.ptrace]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/visual"
)

func main() {
	chip := flag.String("chip", "alpha", "benchmark chip: alpha, hc01..hc10, or hc:<seed>")
	// -tec is parsed as a flag, so a bad tile exits 2 at flag.Parse like
	// an unknown flag.
	var sites []int
	flag.Func("tec", "comma-separated TEC tile indices (empty = passive)", func(v string) error {
		sites = nil
		if v == "" {
			return nil
		}
		for _, f := range strings.Split(v, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad TEC tile %q", f)
			}
			sites = append(sites, t)
		}
		return nil
	})
	current := flag.Float64("current", 0, "TEC supply current (A)")
	gridOut := flag.Bool("grid", false, "print the per-tile temperature grid")
	pngPath := flag.String("png", "", "write a heatmap PNG of the silicon layer to this path")
	flpPath := flag.String("flp", "", "custom floorplan file (HotSpot .flp format)")
	ptracePath := flag.String("ptrace", "", "power trace for the custom floorplan (.ptrace)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("thermalsim", func(ctx context.Context) error {
		loaded, err := chipload.Load(chipload.Spec{Name: *chip, FLP: *flpPath, Ptrace: *ptracePath})
		if err != nil {
			return err
		}
		cfg := core.Config{
			Geom: loaded.Geom,
			Cols: loaded.Grid.Cols, Rows: loaded.Grid.Rows,
			TilePower: loaded.TilePower,
		}
		// Validate the assembled configuration before any solve so a bad
		// input exits with the invalid-input status instead of a solver error.
		if err := cfg.Validate(); err != nil {
			return err
		}
		sys, err := core.NewSystem(cfg, sites)
		if err != nil {
			return err
		}
		peak, tile, theta, err := sys.PeakAtCtx(ctx, *current)
		if err != nil {
			return fmt.Errorf("solve at %.3f A: %w", *current, err)
		}
		sil := sys.PN.SiliconTemps(theta)
		var mean float64
		for _, v := range sil {
			mean += v
		}
		mean /= float64(len(sil))

		fmt.Printf("chip %s: %d tiles, %d TEC(s) at %.3f A\n", loaded.Name, len(sil), len(sites), *current)
		fmt.Printf("  peak %.2f C at tile %d, mean %.2f C, ambient %.2f C\n",
			material.KelvinToCelsius(peak), tile, material.KelvinToCelsius(mean),
			material.KelvinToCelsius(sys.Cfg.Geom.AmbientK))
		if len(sites) > 0 {
			fmt.Printf("  TEC input power %.3f W", sys.TECPower(theta, *current))
			if *current > 0 {
				fmt.Printf(", COP %.2f", sys.Array.ArrayCOP(theta, *current))
			}
			fmt.Println()
			lambda, err := sys.RunawayLimit(core.RunawayOptions{Ctx: ctx})
			if err != nil {
				return err
			}
			fmt.Printf("  runaway limit lambda_m = %.2f A\n", lambda)
		}
		if *gridOut {
			g := loaded.Grid
			for r := g.Rows - 1; r >= 0; r-- {
				for c := 0; c < g.Cols; c++ {
					fmt.Printf("%6.1f ", material.KelvinToCelsius(sil[g.TileIndex(c, r)]))
				}
				fmt.Println()
			}
		}
		if *pngPath != "" {
			out, err := os.Create(*pngPath)
			if err != nil {
				return err
			}
			err = visual.WriteHeatmap(out, loaded.Grid, sil, visual.HeatmapOptions{
				TECSites:  sites,
				Floorplan: loaded.Floorplan,
				ColorBar:  true,
			})
			if cerr := out.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("  heatmap written to %s\n", *pngPath)
		}
		return nil
	}))
}
