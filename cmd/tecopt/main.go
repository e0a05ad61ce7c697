// Command tecopt runs the end-to-end cooling-system configuration flow
// of the paper on a benchmark chip: greedy TEC deployment (Figure 5),
// convex supply-current optimization (Section V.C), and the full-cover
// baseline comparison (Table I columns).
//
// Usage:
//
//	tecopt [-chip alpha|hcNN|hc:<seed>] [-limit 85] [-map]
//	       [-method golden|gradient|brent]
//	       [-flp chip.flp -ptrace chip.ptrace [-tiles 12x12] [-margin 1.2]]
//	       [observability flags: -metrics, -trace FILE, -trace-format FMT,
//	        -log text|json, -log-level LVL, -pprof ADDR, -timeout DUR]
//
// Examples:
//
//	tecopt -chip alpha -limit 85 -map
//	tecopt -chip hc03
//	tecopt -flp mychip.flp -ptrace mychip.ptrace -tiles 12x12
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/obs"
)

func main() {
	chip := flag.String("chip", "alpha", "benchmark chip: alpha, hc01..hc10, or hc:<seed>")
	limitC := flag.Float64("limit", 85, "maximum allowable silicon temperature (C)")
	showMap := flag.Bool("map", false, "print the Figure-7-style deployment map")
	// -method and -tiles are parsed as flags, so a bad value exits 2 at
	// flag.Parse like an unknown flag.
	method := core.CurrentGolden
	flag.Func("method", `current optimizer: golden, gradient or brent (default "golden")`, func(v string) (err error) {
		method, err = core.ParseCurrentMethod(v)
		return err
	})
	fullCover := flag.Bool("fullcover", true, "also run the full-cover baseline")
	flpPath := flag.String("flp", "", "custom floorplan file (HotSpot .flp format)")
	ptracePath := flag.String("ptrace", "", "power trace for the custom floorplan (.ptrace)")
	cols, rows := 12, 12
	flag.Func("tiles", `tile grid for custom floorplans, COLSxROWS (default "12x12")`, func(v string) (err error) {
		cols, rows, err = parseTiles(v)
		return err
	})
	margin := flag.Float64("margin", 1.2, "worst-case margin over the trace envelope")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout (for scripting)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	os.Exit(obsFlags.Run("tecopt", func(ctx context.Context) error {
		loaded, err := chipload.Load(chipload.Spec{
			Name: *chip, FLP: *flpPath, Ptrace: *ptracePath,
			Cols: cols, Rows: rows, Margin: *margin,
		})
		if err != nil {
			return err
		}

		opt := core.CurrentOptions{Method: method, Ctx: ctx}
		cfg := core.Config{
			Geom: loaded.Geom,
			Cols: loaded.Grid.Cols, Rows: loaded.Grid.Rows,
			TilePower: loaded.TilePower,
		}
		// Validate before solving so a bad chip file exits with the
		// invalid-input status instead of surfacing as a solver failure.
		if err := cfg.Validate(); err != nil {
			return err
		}

		res, err := core.GreedyDeploy(cfg, material.CelsiusToKelvin(*limitC), opt)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON(loaded.Name, *limitC, res)
		}
		fmt.Printf("chip %s: no-TEC peak %.2f C, limit %.1f C\n",
			loaded.Name, material.KelvinToCelsius(res.NoTECPeakK), *limitC)
		if res.Success {
			fmt.Printf("greedy deployment SUCCEEDS: %d TECs, %d iteration(s)\n",
				len(res.Sites), len(res.Iterations))
		} else {
			fmt.Printf("greedy deployment FAILS (limit unreachable): best with %d TECs\n", len(res.Sites))
		}
		fmt.Printf("  I_opt   = %.3f A (lambda_m = %.2f A)\n", res.Current.IOpt, res.Current.LambdaM)
		fmt.Printf("  peak    = %.2f C (cooling swing %.2f C)\n",
			material.KelvinToCelsius(res.Current.PeakK),
			res.NoTECPeakK-res.Current.PeakK)
		fmt.Printf("  P_TEC   = %.3f W\n", res.Current.TECPowerW)
		if res.System.Array.Count() > 0 && res.Current.IOpt > 0 {
			fmt.Printf("  COP     = %.2f\n", res.System.Array.ArrayCOP(res.Current.Theta, res.Current.IOpt))
			fmt.Printf("  V_str   = %.3f V (series string)\n",
				res.System.Array.StringVoltage(res.Current.Theta, res.Current.IOpt))
		}
		for n, it := range res.Iterations {
			fmt.Printf("  iter %d: +%d tiles -> peak %.2f C, %d still over\n",
				n+1, len(it.Added), material.KelvinToCelsius(it.PeakK), len(it.OverLimit))
		}

		if *fullCover {
			fc, _, err := core.FullCover(cfg, opt)
			if err != nil {
				return err
			}
			fmt.Printf("full-cover baseline: min peak %.2f C at %.3f A (P_TEC %.2f W, lambda_m %.2f A)\n",
				material.KelvinToCelsius(fc.PeakK), fc.IOpt, fc.TECPowerW, fc.LambdaM)
			fmt.Printf("  swing loss vs greedy: %.2f C\n", fc.PeakK-res.Current.PeakK)
		}

		if *showMap {
			marked := map[int]bool{}
			for _, s := range res.Sites {
				marked[s] = true
			}
			fmt.Print(floorplan.AsciiMap(loaded.Floorplan, loaded.Grid, marked))
		}
		return nil
	}))
}

// jsonResult is the stable machine-readable summary emitted by -json.
// lambda_m_a is null when lambda_m is +Inf (no TEC deployed, or a limit
// beyond reach), which JSON cannot encode.
type jsonResult struct {
	Chip        string   `json:"chip"`
	LimitC      float64  `json:"limit_c"`
	Success     bool     `json:"success"`
	NoTECPeakC  float64  `json:"no_tec_peak_c"`
	NumTECs     int      `json:"num_tecs"`
	Sites       []int    `json:"sites"`
	IOptA       float64  `json:"iopt_a"`
	LambdaMA    *float64 `json:"lambda_m_a"`
	PeakC       float64  `json:"peak_c"`
	PTECW       float64  `json:"ptec_w"`
	StringVoltV float64  `json:"string_volt_v"`
	Iterations  int      `json:"iterations"`
}

func emitJSON(chip string, limitC float64, res *core.DeployResult) error {
	out := jsonResult{
		Chip:       chip,
		LimitC:     limitC,
		Success:    res.Success,
		NoTECPeakC: material.KelvinToCelsius(res.NoTECPeakK),
		NumTECs:    len(res.Sites),
		Sites:      res.Sites,
		IOptA:      res.Current.IOpt,
		PeakC:      material.KelvinToCelsius(res.Current.PeakK),
		PTECW:      res.Current.TECPowerW,
		Iterations: len(res.Iterations),
	}
	if l := res.Current.LambdaM; !math.IsInf(l, 0) && !math.IsNaN(l) {
		out.LambdaMA = &l
	}
	if res.System.Array.Count() > 0 {
		out.StringVoltV = res.System.Array.StringVoltage(res.Current.Theta, res.Current.IOpt)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parseTiles reads a COLSxROWS tile grid.
func parseTiles(s string) (cols, rows int, err error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want COLSxROWS")
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &cols); err != nil {
		return 0, 0, fmt.Errorf("want COLSxROWS: %v", err)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &rows); err != nil {
		return 0, 0, fmt.Errorf("want COLSxROWS: %v", err)
	}
	return cols, rows, nil
}
