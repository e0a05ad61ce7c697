package core

import (
	"context"
	"math"
	"testing"

	"tecopt/internal/material"
	"tecopt/internal/num"
)

// Rectangular-die and non-square-grid coverage: nothing in the model
// assumes Cols == Rows or DieWidth == DieHeight; these tests pin that
// down end to end.

func rectConfig() Config {
	geom := material.DefaultPackage()
	geom.DieWidth = 8e-3
	geom.DieHeight = 4e-3
	p := make([]float64, 16*8) // 16 cols x 8 rows of 0.5 mm tiles
	for i := range p {
		p[i] = 0.1
	}
	// A 2-tile hotspot at columns 7-8, symmetric about the die's
	// vertical center line (between columns 7 and 8 of 16).
	p[16*4+7] = 0.9
	p[16*4+8] = 0.9
	return Config{
		Geom: geom, Cols: 16, Rows: 8,
		SpreaderCells: 10, SinkCells: 10,
		TilePower: p,
	}
}

func TestRectangularDiePassive(t *testing.T) {
	sys, err := NewSystem(rectConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peak, tile, theta, err := sys.PeakAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if tile != 16*4+7 && tile != 16*4+8 {
		t.Fatalf("peak at tile %d, want one of the heated tiles", tile)
	}
	if peak <= sys.Cfg.Geom.AmbientK {
		t.Fatal("no heating")
	}
	// Mirror symmetry across the vertical center line (between columns
	// 7 and 8): the flanking tiles at columns 6 and 9 must match.
	sil := sys.PN.SiliconTemps(theta)
	l := sil[16*4+6]
	r := sil[16*4+9]
	if math.Abs(l-r) > 1e-6 {
		t.Fatalf("flank symmetry broken: %v vs %v", l, r)
	}
}

func TestRectangularDieDeployAndOptimize(t *testing.T) {
	cfg := rectConfig()
	passive, err := NewSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak0, _, _, err := passive.PeakAt(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyDeploy(cfg, peak0-1.5, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("greedy failed on rectangular die: peak %.2f", res.Current.PeakK)
	}
	if len(res.Sites) == 0 || res.Current.IOpt <= 0 {
		t.Fatalf("degenerate result: %+v", res.Current)
	}
	// lambda_m must be finite and consistent between the paper's
	// bisection over Cholesky probes (the direct path) and the SMW
	// spectral limit.
	direct := cfg
	direct.Solve = SolveDirect
	oracle, err := NewSystem(direct, res.Sites)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := oracle.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs := res.System.reusable(context.Background())
	if rs == nil {
		t.Fatal("SMW setup failed on rectangular die")
	}
	spec := rs.Lambda()
	if !num.IsFinite(bin) || math.Abs(bin-spec)/bin > 1e-6 {
		t.Fatalf("lambda_m mismatch on rectangular die: %v vs %v", bin, spec)
	}
}

func TestRectangularEnergyConservation(t *testing.T) {
	cfg := rectConfig()
	sys, err := NewSystem(cfg, []int{16*4 + 7, 16*4 + 8})
	if err != nil {
		t.Fatal(err)
	}
	i := 3.0
	theta, err := sys.SolveAt(i)
	if err != nil {
		t.Fatal(err)
	}
	var chip float64
	for _, p := range cfg.TilePower {
		chip += p
	}
	amb := sys.Cfg.Geom.AmbientK
	var convected float64
	for n, v := range sys.PN.Net.BaseRHS() {
		if !num.IsZero(v) {
			convected += (v / amb) * (theta[n] - amb)
		}
	}
	want := chip + sys.TECPower(theta, i)
	if math.Abs(convected-want) > 1e-6*want {
		t.Fatalf("energy balance: convected %.6f vs input %.6f", convected, want)
	}
}
