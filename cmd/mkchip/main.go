// Command mkchip exports a built-in benchmark chip as a HotSpot-format
// floorplan (.flp) plus a power trace (.ptrace), so the file-driven
// tecopt/thermalsim paths can round-trip the bundled experiments and
// users have templates for their own chips.
//
// Usage:
//
//	mkchip [-chip alpha|hcNN|hc:<seed>] [-out chip]
//
// writes chip.flp and chip.ptrace. For the Alpha chip the trace holds
// one sample per synthetic SPEC2000-like workload; for HC chips it holds
// a single worst-case sample (the generator defines no workloads), so
// load it back with -margin 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"tecopt/internal/chipload"
	"tecopt/internal/floorplan"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

func main() {
	chip := flag.String("chip", "alpha", "chip to export: alpha, hc01..hc10, or hc:<seed>")
	out := flag.String("out", "chip", "output basename (writes <out>.flp and <out>.ptrace)")
	logFlags := obs.BindLogFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(logFlags.Run("mkchip", func() error {
		loaded, err := chipload.Load(chipload.Spec{Name: *chip})
		if err != nil {
			return err
		}

		flpPath := *out + ".flp"
		ff, err := os.Create(flpPath)
		if err != nil {
			return err
		}
		if err := floorplan.WriteFLP(ff, loaded.Floorplan); err != nil {
			return err
		}
		if err := ff.Close(); err != nil {
			return err
		}

		var tr *power.Trace
		if *chip == "alpha" || *chip == "" {
			// Full synthetic workload trace; envelope*1.2 = worst case.
			tr = power.SynthesizeTrace(power.NewAlphaModel(), loaded.Floorplan, power.SyntheticSPECWorkloads())
		} else {
			// HC chips define worst-case powers directly: one sample, and
			// the consumer should use -margin 1.
			row := make([]float64, len(loaded.Floorplan.Units))
			perUnit := map[string]float64{}
			for t, p := range loaded.TilePower {
				owner := loaded.Grid.OwnerUnit[t]
				perUnit[loaded.Floorplan.Units[owner].Name] += p
			}
			for i, u := range loaded.Floorplan.Units {
				row[i] = perUnit[u.Name]
			}
			tr = &power.Trace{Units: loaded.Floorplan.UnitNames(), Samples: [][]float64{row}}
		}
		ptPath := *out + ".ptrace"
		pf, err := os.Create(ptPath)
		if err != nil {
			return err
		}
		if err := power.WritePtrace(pf, tr); err != nil {
			return err
		}
		if err := pf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d units) and %s (%d samples)\n",
			flpPath, len(loaded.Floorplan.Units), ptPath, len(tr.Samples))
		return nil
	}))
}
