// Command benchtable regenerates the paper's Table I: the Alpha-21364-
// like chip plus hypothetical chips HC01..HC10, comparing the greedy TEC
// deployment against the full-cover baseline.
//
// Usage:
//
//	benchtable [-chip all|alpha|hc] [-limit 85] [-parallel N] [-timeout 2m]
//
// Exit status follows the tecerr taxonomy (0 ok, 2 invalid input,
// 5 cancelled/timeout, ...). On timeout the rows completed so far are
// still printed before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"tecopt/internal/bench"
	"tecopt/internal/floorplan"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

func main() {
	// -chip is checked at flag.Parse, so a bad value exits 2 like an
	// unknown flag.
	chip := "all"
	flag.Func("chip", `which rows: all, alpha, or hc (default "all")`, func(v string) error {
		if v != "all" && v != "alpha" && v != "hc" {
			return fmt.Errorf("want all, alpha or hc")
		}
		chip = v
		return nil
	})
	limit := flag.Float64("limit", 85, "base allowable temperature (C)")
	parallel := flag.Int("parallel", 1, "chips evaluated concurrently (0 = all cores, 1 = serial)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("benchtable", func(ctx context.Context) error {
		opt := bench.TableIOptions{BaseLimitC: *limit, Parallel: *parallel, Ctx: ctx}
		start := time.Now()
		var rows []*bench.TableIRow
		var err error
		switch chip {
		case "all":
			rows, err = bench.RunTableI(opt)
		case "alpha":
			f, g := floorplan.Alpha21364Grid()
			var row *bench.TableIRow
			row, err = bench.RunTableIRow("Alpha", power.AlphaTilePowers(f, g), opt)
			rows = []*bench.TableIRow{row}
		case "hc":
			var chips []*power.HCChip
			chips, err = power.GenerateHCSuite(power.DefaultHCSpec())
			if err == nil {
				for _, c := range chips {
					var row *bench.TableIRow
					row, err = bench.RunTableIRow(c.Name, c.TilePower, opt)
					if err != nil {
						break
					}
					rows = append(rows, row)
				}
			}
		}
		if err != nil {
			// Flush whatever rows completed before the failure — a timed-out
			// table run still paid for them.
			var done []*bench.TableIRow
			for _, r := range rows {
				if r != nil {
					done = append(done, r)
				}
			}
			if len(done) > 0 {
				fmt.Printf("(partial: %d of %d rows before error)\n", len(done), len(rows))
				fmt.Print(bench.FormatTableI(done))
			}
			return err
		}
		fmt.Print(bench.FormatTableI(rows))
		fmt.Printf("\nmax cooling swing %.1f C | avg swing loss %.1f C | failures at %.0f C: %v | total %v\n",
			bench.MaxCoolingSwingC(rows), bench.AvgSwingLossC(rows), *limit,
			bench.FailuresAtBase(rows), time.Since(start).Round(time.Millisecond))
		return nil
	}))
}
