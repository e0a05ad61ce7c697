package bench

import (
	"fmt"
	"math"
	"strings"

	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/power"
	"tecopt/internal/refsolver"
	"tecopt/internal/tec"
	"tecopt/internal/thermal"
)

// Extended validation studies.

// WorkloadValidationRow is the compact-vs-reference comparison for one
// workload's power profile.
type WorkloadValidationRow struct {
	Workload   string
	PeakC      float64 // compact-model peak
	WorstDiffC float64 // worst per-tile difference vs reference
}

// RunWorkloadValidation repeats the Section-VI validation for every
// synthetic SPEC workload individually — the paper's wording is "for a
// given floorplan and a set of power traces", i.e. per-trace agreement,
// not only the worst-case envelope.
func RunWorkloadValidation() ([]WorkloadValidationRow, error) {
	geom := material.DefaultPackage()
	f, g := floorplan.Alpha21364Grid()
	model := power.NewAlphaModel()

	pn, err := thermal.BuildPackage(geom, thermal.DefaultBuildOptions())
	if err != nil {
		return nil, err
	}

	var rows []WorkloadValidationRow
	for _, w := range power.SyntheticSPECWorkloads() {
		p := g.DensityPerTile(f, model.Densities(w))
		theta, err := pn.SolvePassive(p)
		if err != nil {
			return nil, err
		}
		compact := pn.SiliconTemps(theta)
		ref, err := refsolver.Solve(geom, 12, 12, p, refsolver.Options{FinePitch: geom.DieWidth / 12})
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for i := range compact {
			if d := math.Abs(compact[i] - ref.TileTempsK[i]); d > worst {
				worst = d
			}
		}
		peak, _ := pn.PeakSilicon(theta)
		rows = append(rows, WorkloadValidationRow{
			Workload:   w.Name,
			PeakC:      material.KelvinToCelsius(peak),
			WorstDiffC: worst,
		})
	}
	return rows, nil
}

// ResolutionRow reports the compact model at one spreader/sink
// resolution.
type ResolutionRow struct {
	SpreaderCells, SinkCells int
	Nodes                    int
	PeakC                    float64
}

// RunResolutionAblation sweeps the compact model's coarse-layer
// resolutions on the Alpha worst case, quantifying the discretization
// choice baked into DefaultBuildOptions.
func RunResolutionAblation(cells []int) ([]ResolutionRow, error) {
	geom := material.DefaultPackage()
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	var rows []ResolutionRow
	for _, c := range cells {
		opts := thermal.BuildOptions{Cols: 12, Rows: 12, SpreaderCells: c, SinkCells: c}
		pn, err := thermal.BuildPackage(geom, opts)
		if err != nil {
			return nil, err
		}
		theta, err := pn.SolvePassive(p)
		if err != nil {
			return nil, err
		}
		peak, _ := pn.PeakSilicon(theta)
		rows = append(rows, ResolutionRow{
			SpreaderCells: c, SinkCells: c,
			Nodes: pn.Net.NumNodes(),
			PeakC: material.KelvinToCelsius(peak),
		})
	}
	return rows, nil
}

// RunActiveValidation compares the compact and reference models WITH
// TEC devices inserted — an extension beyond the paper's passive-only
// HotSpot check — and returns a short report. Both the unpowered and
// the powered (6 A) cases are compared at matched granularity.
func RunActiveValidation() (string, error) {
	geom := material.DefaultPackage()
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	sites := []int{100, 101, 102, 103, 112, 113, 114}
	dev := tec.ChowdhuryDevice()

	var b strings.Builder
	b.WriteString("Active validation: compact vs reference with TEC devices\n")
	for _, current := range []float64{0, 6} {
		sys, err := core.NewSystem(core.Config{TilePower: p, Device: dev}, sites)
		if err != nil {
			return "", err
		}
		theta, err := sys.SolveAt(current)
		if err != nil {
			return "", err
		}
		compact := sys.PN.SiliconTemps(theta)
		ref, err := refsolver.Solve(geom, 12, 12, p, refsolver.Options{
			FinePitch: geom.DieWidth / 12,
			TEC: refsolver.TECSpec{
				Sites: sites, Current: current,
				Seebeck: dev.Seebeck, Resistance: dev.Resistance, Kappa: dev.Kappa,
				ContactCold: dev.ContactCold, ContactHot: dev.ContactHot,
			},
		})
		if err != nil {
			return "", err
		}
		worst := 0.0
		for i := range compact {
			if d := math.Abs(compact[i] - ref.TileTempsK[i]); d > worst {
				worst = d
			}
		}
		fmt.Fprintf(&b, "  i=%.1f A: worst tile difference %.3f C\n", current, worst)
	}
	return b.String(), nil
}

// FormatValidationStudies renders both studies.
func FormatValidationStudies(workloads []WorkloadValidationRow, res []ResolutionRow) string {
	var b strings.Builder
	b.WriteString("Validation per workload (compact vs reference, matched granularity)\n")
	for _, r := range workloads {
		fmt.Fprintf(&b, "  %-14s peak=%7.2f C  worst diff=%5.3f C\n", r.Workload, r.PeakC, r.WorstDiffC)
	}
	b.WriteString("Ablation: compact-model coarse-layer resolution\n")
	for _, r := range res {
		fmt.Fprintf(&b, "  %2dx%-2d cells  nodes=%5d  peak=%7.3f C\n",
			r.SpreaderCells, r.SinkCells, r.Nodes, r.PeakC)
	}
	return b.String()
}
