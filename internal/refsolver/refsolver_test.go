package refsolver

import (
	"math"
	"testing"

	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/power"
	"tecopt/internal/thermal"
)

func TestSolveValidation(t *testing.T) {
	geom := material.DefaultPackage()
	if _, err := Solve(geom, 0, 12, nil, Options{}); err == nil {
		t.Error("zero cols accepted")
	}
	if _, err := Solve(geom, 12, 12, []float64{1}, Options{}); err == nil {
		t.Error("wrong power length accepted")
	}
	bad := make([]float64, 144)
	bad[0] = -1
	if _, err := Solve(geom, 12, 12, bad, Options{}); err == nil {
		t.Error("negative power accepted")
	}
	geom.ConvectionResistance = 0
	if _, err := Solve(geom, 12, 12, make([]float64, 144), Options{}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestSolveZeroPowerIsAmbient(t *testing.T) {
	geom := material.DefaultPackage()
	res, err := Solve(geom, 4, 4, make([]float64, 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for tt, v := range res.TileTempsK {
		if math.Abs(v-geom.AmbientK) > 1e-6 {
			t.Fatalf("tile %d = %v K, want ambient %v", tt, v, geom.AmbientK)
		}
	}
}

func TestSolveEnergyIntuition(t *testing.T) {
	// Mean die rise must be at least P*Rconv (the series convection
	// drop) plus something for conduction.
	geom := material.DefaultPackage()
	p := make([]float64, 16)
	for i := range p {
		p[i] = 1.0 // 16 W uniform
	}
	res, err := Solve(geom, 4, 4, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range res.TileTempsK {
		mean += v
	}
	mean /= 16
	minRise := 16 * geom.ConvectionResistance
	if mean-geom.AmbientK < minRise {
		t.Fatalf("mean rise %.2f K below convection floor %.2f K", mean-geom.AmbientK, minRise)
	}
	if res.PeakK-geom.AmbientK > minRise+40 {
		t.Fatalf("peak rise %.2f K implausibly high", res.PeakK-geom.AmbientK)
	}
}

func TestSolveHotspotSymmetryAndLocality(t *testing.T) {
	geom := material.DefaultPackage()
	p := make([]float64, 9)
	p[4] = 2 // center tile of a 3x3 tiling
	res, err := Solve(geom, 3, 3, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4-fold symmetry of the corners.
	if math.Abs(res.TileTempsK[0]-res.TileTempsK[8]) > 1e-3 {
		t.Fatalf("corner asymmetry: %v vs %v", res.TileTempsK[0], res.TileTempsK[8])
	}
	if res.TileTempsK[4] <= res.TileTempsK[0] {
		t.Fatal("heated center not hottest")
	}
	if !num.ExactEqual(res.PeakK, res.TileTempsK[4]) {
		t.Fatal("PeakK inconsistent")
	}
}

// The headline validation experiment (Section VI's HotSpot-4.1
// comparison): compact model vs the independent reference solver on the
// Alpha worst-case power map, worst tile difference < 1.5 C.
//
// The comparison runs at the compact model's lateral granularity
// (0.5 mm tiles) — the same matched-granularity validation the paper
// performs, since HotSpot 4.1's default block model shares the one-node-
// per-block construction. The reference still differs structurally:
// fully gridded spreader/sink peripheries, multiple z-sublayers per
// layer, and nonuniform outer cells. Sub-tile granularity effects are
// quantified separately in TestGranularityStudy.
func TestCompactModelWithin1p5C(t *testing.T) {
	geom := material.DefaultPackage()
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)

	pn, err := thermal.BuildPackage(geom, thermal.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	theta, err := pn.SolvePassive(p)
	if err != nil {
		t.Fatal(err)
	}
	compact := pn.SiliconTemps(theta)

	ref, err := Solve(geom, 12, 12, p, Options{FinePitch: geom.DieWidth / 12})
	if err != nil {
		t.Fatal(err)
	}

	worst := 0.0
	for i := range compact {
		d := math.Abs(compact[i] - ref.TileTempsK[i])
		if d > worst {
			worst = d
		}
	}
	t.Logf("compact vs reference: worst tile difference %.3f C over %d reference cells (%d CG iters)",
		worst, ref.Nodes, ref.Iterations)
	if worst > 1.5 {
		t.Fatalf("worst-case difference %.3f C exceeds the paper's 1.5 C validation bound", worst)
	}
}

// TestGranularityStudy quantifies the compact model's sub-tile spreading
// error against a 2x-finer reference grid. Block-style compact models
// over-predict concentrated hotspots by a few degrees; assert the error
// stays within the known envelope so regressions are caught.
func TestGranularityStudy(t *testing.T) {
	geom := material.DefaultPackage()
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)

	pn, err := thermal.BuildPackage(geom, thermal.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	theta, err := pn.SolvePassive(p)
	if err != nil {
		t.Fatal(err)
	}
	compact := pn.SiliconTemps(theta)

	ref, err := Solve(geom, 12, 12, p, Options{FinePitch: geom.DieWidth / 24})
	if err != nil {
		t.Fatal(err)
	}
	worst, mean := 0.0, 0.0
	for i := range compact {
		d := compact[i] - ref.TileTempsK[i]
		mean += d
		if math.Abs(d) > worst {
			worst = math.Abs(d)
		}
	}
	mean /= float64(len(compact))
	t.Logf("granularity study: worst %.3f C, mean bias %.3f C", worst, mean)
	if worst > 4.0 {
		t.Fatalf("sub-tile granularity error %.3f C beyond known envelope", worst)
	}
	if math.Abs(mean) > 1.5 {
		t.Fatalf("mean bias %.3f C beyond known envelope", mean)
	}
}

func TestFinerGridConverges(t *testing.T) {
	// Refining the reference grid must not change tile temperatures much
	// (discretization convergence).
	geom := material.DefaultPackage()
	p := make([]float64, 16)
	p[5] = 3
	coarse, err := Solve(geom, 4, 4, p, Options{FinePitch: geom.DieWidth / 16})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Solve(geom, 4, 4, p, Options{FinePitch: geom.DieWidth / 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range coarse.TileTempsK {
		if math.Abs(coarse.TileTempsK[i]-fine.TileTempsK[i]) > 1.0 {
			t.Fatalf("tile %d: %.3f vs %.3f K between resolutions", i,
				coarse.TileTempsK[i], fine.TileTempsK[i])
		}
	}
	if fine.Nodes <= coarse.Nodes {
		t.Fatal("finer grid did not add cells")
	}
}

func TestAxisProperties(t *testing.T) {
	edges := axis(3e-3, 30e-3, 0.5e-3, 1.7)
	// Must start and end exactly at the domain boundary.
	if !num.ExactEqual(edges[0], -30e-3) || !num.ExactEqual(edges[len(edges)-1], 30e-3) {
		t.Fatalf("axis endpoints: %v .. %v", edges[0], edges[len(edges)-1])
	}
	// Strictly increasing.
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("axis not increasing at %d: %v <= %v", i, edges[i], edges[i-1])
		}
	}
	// Fine region edges include +/- dieHalf.
	foundNeg, foundPos := false, false
	for _, e := range edges {
		if math.Abs(e+3e-3) < 1e-12 {
			foundNeg = true
		}
		if math.Abs(e-3e-3) < 1e-12 {
			foundPos = true
		}
	}
	if !foundNeg || !foundPos {
		t.Fatal("die boundary not on cell edges")
	}
}
