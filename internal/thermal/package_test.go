package thermal

import (
	"errors"
	"math"
	"testing"

	"tecopt/internal/floorplan"
	"tecopt/internal/mat"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/power"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// testPackage builds the default package with a mild power profile and
// returns the network plus its assembled system.
func testPackage(t *testing.T) (*PackageNetwork, *sparse.CSR, []float64) {
	t.Helper()
	pn, err := BuildPackage(material.DefaultPackage(), DefaultBuildOptions())
	if err != nil {
		t.Fatalf("BuildPackage: %v", err)
	}
	tile := make([]float64, pn.NumTiles())
	for i := range tile {
		tile[i] = 0.5 + 0.01*float64(i%7)
	}
	p, err := pn.PowerVector(tile)
	if err != nil {
		t.Fatalf("PowerVector: %v", err)
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	return pn, pn.Net.G(), rhs
}

// nodesOfKind returns the indices of n's nodes of kind k, in insertion
// order.
func nodesOfKind(n *Network, k NodeKind) []int {
	var out []int
	for i, nd := range n.nodes {
		if nd.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

func defaultPN(t *testing.T, tecSites map[int]bool) *PackageNetwork {
	t.Helper()
	opts := DefaultBuildOptions()
	opts.TECSites = tecSites
	pn, err := BuildPackage(material.DefaultPackage(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return pn
}

func TestBuildPackageNodeCounts(t *testing.T) {
	pn := defaultPN(t, nil)
	nt := pn.NumTiles()
	if nt != 144 {
		t.Fatalf("tiles = %d, want 144", nt)
	}
	wantNodes := 144 + 144 + 20*20 + 20*20
	if got := pn.Net.NumNodes(); got != wantNodes {
		t.Fatalf("nodes = %d, want %d", got, wantNodes)
	}
	if len(nodesOfKind(pn.Net, KindSilicon)) != 144 {
		t.Error("silicon node count wrong")
	}
	if len(nodesOfKind(pn.Net, KindTIM)) != 144 {
		t.Error("TIM node count wrong")
	}
}

func TestBuildPackageTECSitesSkipTIM(t *testing.T) {
	sites := map[int]bool{5: true, 77: true}
	pn := defaultPN(t, sites)
	if got := len(nodesOfKind(pn.Net, KindTIM)); got != 142 {
		t.Fatalf("TIM nodes = %d, want 142", got)
	}
	for tile := range sites {
		if pn.TIMNode[tile] != -1 {
			t.Errorf("TEC site %d still has a TIM node", tile)
		}
		if pn.ColdNode[tile] != -1 || pn.HotNode[tile] != -1 {
			t.Errorf("TEC site %d has device nodes before AttachTEC", tile)
		}
	}
}

func TestBuildPackageGroundConductanceMatchesConvection(t *testing.T) {
	pn := defaultPN(t, nil)
	want := 1 / pn.Geom.ConvectionResistance
	var got float64
	for _, gr := range pn.Net.grounds {
		got += gr.g
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ground conductance = %v, want %v", got, want)
	}
}

func TestBuildPackageSprSharesCoverTiles(t *testing.T) {
	pn := defaultPN(t, nil)
	tileArea := (pn.Geom.DieWidth / float64(pn.Opts.Cols)) * (pn.Geom.DieHeight / float64(pn.Opts.Rows))
	for tt, shares := range pn.SprShares {
		var sum float64
		for _, sh := range shares {
			sum += sh.Area
		}
		if math.Abs(sum-tileArea) > 1e-9*tileArea {
			t.Fatalf("tile %d spreader shares sum to %g, want %g", tt, sum, tileArea)
		}
	}
}

func TestBuildPackageRejectsBadInputs(t *testing.T) {
	geom := material.DefaultPackage()
	if _, err := BuildPackage(geom, BuildOptions{Cols: 0, Rows: 12}); err == nil {
		t.Error("zero cols accepted")
	}
	geom.ConvectionResistance = -1
	if _, err := BuildPackage(geom, DefaultBuildOptions()); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestPassiveSolveUniformPower(t *testing.T) {
	pn := defaultPN(t, nil)
	// 20 W spread uniformly: all tile temperatures equal by symmetry,
	// and the mean sink rise must be ~ P * Rconv.
	tile := make([]float64, pn.NumTiles())
	for i := range tile {
		tile[i] = 20.0 / float64(len(tile))
	}
	theta, err := pn.SolvePassive(tile)
	if err != nil {
		t.Fatal(err)
	}
	sil := pn.SiliconTemps(theta)
	mn, _ := mat.Min(sil)
	mx, _ := mat.Max(sil)
	if mx-mn > 3 {
		t.Fatalf("uniform power but tile spread = %.2f K", mx-mn)
	}
	if mx < pn.Geom.AmbientK+5 {
		t.Fatalf("peak %.2f K barely above ambient %.2f K", mx, pn.Geom.AmbientK)
	}
	// 4-fold symmetry: corner tiles must match.
	g := pn.Opts.Cols
	c00 := sil[0]
	c11 := sil[g*g-1]
	if math.Abs(c00-c11) > 1e-6 {
		t.Fatalf("corner symmetry broken: %v vs %v", c00, c11)
	}
}

func TestPassiveSolveEnergyConservation(t *testing.T) {
	pn := defaultPN(t, nil)
	tile := make([]float64, pn.NumTiles())
	tile[57] = 5 // a single 5 W hotspot
	theta, err := pn.SolvePassive(tile)
	if err != nil {
		t.Fatal(err)
	}
	// All injected power must leave through the convection legs:
	// sum over grounds g*(theta_i - ambient) == 5 W.
	var out float64
	for _, gr := range pn.Net.grounds {
		out += gr.g * (theta[gr.i] - gr.sourceK)
	}
	if math.Abs(out-5) > 1e-6 {
		t.Fatalf("convected power = %v W, want 5", out)
	}
}

func TestPassiveSolveHotspotLocality(t *testing.T) {
	pn := defaultPN(t, nil)
	tile := make([]float64, pn.NumTiles())
	center := pn.Opts.Cols*6 + 6
	tile[center] = 2
	theta, err := pn.SolvePassive(tile)
	if err != nil {
		t.Fatal(err)
	}
	_, peakTile := pn.PeakSilicon(theta)
	if peakTile != center {
		t.Fatalf("peak at tile %d, want %d (the heated tile)", peakTile, center)
	}
	// Corner far from the hotspot must be much cooler.
	sil := pn.SiliconTemps(theta)
	if sil[center]-sil[0] < 1 {
		t.Fatalf("hotspot not localized: center %.3f corner %.3f", sil[center], sil[0])
	}
}

func TestAlphaPassivePeakCalibration(t *testing.T) {
	// The headline no-TEC number of Table I row "Alpha": theta_peak
	// should come out near the paper's 91.8 C for the calibrated power
	// model and package.
	pn := defaultPN(t, nil)
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)
	theta, err := pn.SolvePassive(p)
	if err != nil {
		t.Fatal(err)
	}
	peakK, tile := pn.PeakSilicon(theta)
	peakC := material.KelvinToCelsius(peakK)
	if peakC < 85 || peakC > 99 {
		t.Fatalf("Alpha no-TEC peak = %.1f C, want ~91.8 C", peakC)
	}
	// The hottest tile must belong to IntReg.
	intRegTiles := g.TilesOfUnit(f, "IntReg")
	found := false
	for _, tt := range intRegTiles {
		if tt == tile {
			found = true
		}
	}
	if !found {
		t.Errorf("peak tile %d not in IntReg %v", tile, intRegTiles)
	}
}

func TestAttachTECWiring(t *testing.T) {
	sites := map[int]bool{40: true}
	pn := defaultPN(t, sites)
	cold, hot, err := pn.AttachTEC(40, 0.25, 0.25, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if pn.ColdNode[40] != cold || pn.HotNode[40] != hot {
		t.Fatal("node bookkeeping wrong")
	}
	if pn.Net.Node(cold).Kind != KindTECCold || pn.Net.Node(hot).Kind != KindTECHot {
		t.Fatal("node kinds wrong")
	}
	// Double attach must fail.
	if _, _, err := pn.AttachTEC(40, 0.25, 0.25, 0.04); err == nil {
		t.Error("double attach accepted")
	}
	// Attaching on a non-site must fail.
	if _, _, err := pn.AttachTEC(41, 0.25, 0.25, 0.04); err == nil {
		t.Error("attach on non-site accepted")
	}
	if _, _, err := pn.AttachTEC(999, 0.25, 0.25, 0.04); err == nil {
		t.Error("attach out of range accepted")
	}
	// Bad conductances rejected (on a fresh site).
	pn2 := defaultPN(t, map[int]bool{7: true})
	if _, _, err := pn2.AttachTEC(7, 0, 0.25, 0.04); err == nil {
		t.Error("zero gc accepted")
	}
}

func TestAttachTECPassiveComparable(t *testing.T) {
	// With the TEC unpowered (i=0), the passive path through the device
	// should carry heat comparably to the TIM it replaced: peak within a
	// few degrees of the all-TIM case.
	f, g := floorplan.Alpha21364Grid()
	p := power.AlphaTilePowers(f, g)

	base := defaultPN(t, nil)
	thetaBase, err := base.SolvePassive(p)
	if err != nil {
		t.Fatal(err)
	}
	peakBase, _ := base.PeakSilicon(thetaBase)

	sites := map[int]bool{}
	for _, tt := range g.TilesOfUnit(f, "IntReg") {
		sites[tt] = true
	}
	withTEC := defaultPN(t, sites)
	for tt := range sites {
		// Plausible thin-film values: 0.25 W/K contacts, 0.04 W/K film.
		if _, _, err := withTEC.AttachTEC(tt, 0.25, 0.25, 0.04); err != nil {
			t.Fatal(err)
		}
	}
	thetaTEC, err := withTEC.SolvePassive(p)
	if err != nil {
		t.Fatal(err)
	}
	peakTEC, _ := withTEC.PeakSilicon(thetaTEC)
	if math.Abs(peakTEC-peakBase) > 10 {
		t.Fatalf("unpowered TEC changed peak by %.1f K (base %.1f, tec %.1f)",
			peakTEC-peakBase, peakBase, peakTEC)
	}
	if peakTEC < peakBase {
		t.Log("unpowered TEC slightly improves conduction (fine)")
	}
}

func TestPowerVectorValidation(t *testing.T) {
	pn := defaultPN(t, nil)
	if _, err := pn.PowerVector([]float64{1, 2}); err == nil {
		t.Error("wrong length accepted")
	}
	bad := make([]float64, pn.NumTiles())
	bad[0] = -1
	if _, err := pn.PowerVector(bad); err == nil {
		t.Error("negative power accepted")
	}
}

func TestGStructureFullPackage(t *testing.T) {
	pn := defaultPN(t, map[int]bool{10: true})
	if _, _, err := pn.AttachTEC(10, 0.25, 0.25, 0.04); err != nil {
		t.Fatal(err)
	}
	g := pn.Net.G()
	if !g.IsSymmetric(1e-9) {
		t.Fatal("G not symmetric")
	}
	// Spot-check Stieltjes sign structure on stored entries.
	for i := 0; i < g.Rows(); i++ {
		cols, vals := g.RowNNZ(i)
		for k, j := range cols {
			if i == j && vals[k] <= 0 {
				t.Fatalf("nonpositive diagonal at %d", i)
			}
			if i != j && vals[k] > 0 {
				t.Fatalf("positive off-diagonal at (%d,%d) = %g", i, j, vals[k])
			}
		}
	}
}

func TestPackageNetworkValidate(t *testing.T) {
	pn, _, _ := testPackage(t)
	if err := pn.Validate(); err != nil {
		t.Fatalf("Validate on a healthy package: %v", err)
	}
}

func TestPowerVectorRejectsNonFinite(t *testing.T) {
	pn, _, _ := testPackage(t)
	tile := make([]float64, pn.NumTiles())
	tile[3] = math.NaN()
	if _, err := pn.PowerVector(tile); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("NaN power: %v", err)
	}
	tile[3] = math.Inf(1)
	if _, err := pn.PowerVector(tile); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("Inf power: %v", err)
	}
}

// Assembly visits only the cells a rectangle can touch. The couplings it
// finds must be those of a scan over every cell: the same spreader
// shares in the same order, bit for bit, and the same spreader-sink
// pattern in G, also where the grids do not line up with the tiles.
func TestBuildPackageOverlapsMatchFullScan(t *testing.T) {
	geom := material.DefaultPackage()
	for _, opts := range []BuildOptions{DefaultBuildOptions(), {Cols: 7, Rows: 5, SpreaderCells: 13, SinkCells: 9}} {
		pn, err := BuildPackage(geom, opts)
		if err != nil {
			t.Fatal(err)
		}
		spr := &layerGrid{cells: opts.SpreaderCells, pitch: geom.SpreaderSide / float64(opts.SpreaderCells), origin: -geom.SpreaderSide / 2}
		snk := &layerGrid{cells: opts.SinkCells, pitch: geom.SinkSide / float64(opts.SinkCells), origin: -geom.SinkSide / 2}
		sprNode, snkNode := nodesOfKind(pn.Net, KindSpreader), nodesOfKind(pn.Net, KindSink)
		tileW, tileH := geom.DieWidth/float64(opts.Cols), geom.DieHeight/float64(opts.Rows)
		for tile, got := range pn.SprShares {
			c, r := tile%opts.Cols, tile/opts.Cols
			tr := floorplan.Rect{X: -geom.DieWidth/2 + float64(c)*tileW, Y: -geom.DieHeight/2 + float64(r)*tileH, W: tileW, H: tileH}
			var want []SprShare
			for k := range sprNode {
				if ov := tr.Overlap(spr.rect(k%spr.cells, k/spr.cells)); ov > 0 {
					want = append(want, SprShare{Node: sprNode[k], Area: ov})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%dx%d tile %d: %d spreader shares, full scan %d", opts.Cols, opts.Rows, tile, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].Node || math.Float64bits(got[i].Area) != math.Float64bits(want[i].Area) {
					t.Fatalf("%dx%d tile %d share %d: %+v, full scan %+v", opts.Cols, opts.Rows, tile, i, got[i], want[i])
				}
			}
		}
		g := pn.Net.G()
		for i, sn := range sprNode {
			sr := spr.rect(i%spr.cells, i/spr.cells)
			for k, kn := range snkNode {
				ov := sr.Overlap(snk.rect(k%snk.cells, k/snk.cells))
				if (ov > 0) == num.IsZero(g.At(sn, kn)) {
					t.Fatalf("%dx%d spreader cell %d, sink cell %d: overlap %g, G entry %g", opts.Cols, opts.Rows, i, k, ov, g.At(sn, kn))
				}
			}
		}
	}
}
