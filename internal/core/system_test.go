package core

import (
	"errors"
	"math"
	"testing"

	"tecopt/internal/engine"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/tec"
	"tecopt/internal/tecerr"
)

// smallConfig builds a fast 8x8-die configuration with a single dominant
// hotspot plus a uniform background, for use across the core tests.
func smallConfig() Config {
	geom := material.DefaultPackage()
	p := make([]float64, 64)
	for i := range p {
		p[i] = 0.08 // ~5 W background
	}
	// A 2x2 hotspot block near the center, ~8x the background density.
	for _, t := range []int{27, 28, 35, 36} {
		p[t] = 0.7
	}
	return Config{
		Geom: geom, Cols: 8, Rows: 8,
		SpreaderCells: 10, SinkCells: 10,
		Device:    tec.ChowdhuryDevice(),
		TilePower: p,
	}
}

// mustSystem builds a System from a known-good configuration, failing
// the test immediately if construction reports an error.
func mustSystem(t *testing.T, cfg Config, sites []int) *System {
	t.Helper()
	sys, err := NewSystem(cfg, sites)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewSystem(Config{TilePower: []float64{1}}, nil); err == nil {
		t.Error("wrong tile power length accepted")
	}
	if _, err := NewSystem(cfg, []int{999}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := NewSystem(cfg, []int{3, 3}); err == nil {
		t.Error("duplicate site accepted")
	}
	// Cols*Rows wraps to 16, the length of the power vector.
	overflow := Config{Cols: 1<<62 + 1, Rows: 16, TilePower: make([]float64, 16)}
	if _, err := NewSystem(overflow, nil); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("overflowing tiling: err = %v, want CodeInvalidInput", err)
	}
	for _, cells := range [][2]int{{-1, 0}, {0, -1}} {
		bad := smallConfig()
		bad.SpreaderCells, bad.SinkCells = cells[0], cells[1]
		if _, err := NewSystem(bad, nil); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("layer cells %v: err = %v, want CodeInvalidInput", cells, err)
		}
	}
}

func TestNewSystemDefaults(t *testing.T) {
	cfg := Config{TilePower: make([]float64, 144)}
	sys, err := NewSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cfg.Cols != 12 || sys.Cfg.Rows != 12 {
		t.Errorf("default grid = %dx%d", sys.Cfg.Cols, sys.Cfg.Rows)
	}
	if num.IsZero(sys.Cfg.Device.Seebeck) {
		t.Error("default device not applied")
	}
}

func TestSolveAtZeroMatchesPassive(t *testing.T) {
	cfg := smallConfig()
	sys, err := NewSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := sys.SolveAt(0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.PN.SolvePassive(cfg.TilePower)
	if err != nil {
		t.Fatal(err)
	}
	for i := range theta {
		if math.Abs(theta[i]-direct[i]) > 1e-6 {
			t.Fatalf("node %d: %v vs %v", i, theta[i], direct[i])
		}
	}
}

func TestSolveAtNegativeCurrent(t *testing.T) {
	sys := mustSystem(t, smallConfig(), nil)
	if _, err := sys.SolveAt(-1); err == nil {
		t.Fatal("negative current accepted")
	}
}

// A non-finite current is invalid input on both solve paths, never a
// not-PD answer that a sweep would read as runaway.
func TestNonFiniteCurrentRejected(t *testing.T) {
	for _, path := range []SolvePath{SolveAuto, SolveDirect} {
		cfg := smallConfig()
		cfg.Solve = path
		sys := mustSystem(t, cfg, []int{27})
		k := sys.PN.SilNode[27]
		for _, i := range []float64{math.NaN(), math.Inf(1)} {
			if _, err := sys.Hkl(i, k, k); !errors.Is(err, tecerr.ErrInvalidInput) {
				t.Errorf("path %d, Hkl at %v: err = %v, want CodeInvalidInput", path, i, err)
			}
		}
	}
}

// A negative current is invalid input for h_kl too, on both solve
// paths: the fast path's spectral limit bounds only positive currents,
// so without the check it would return a finite h_kl where the direct
// factorization reports not-PD.
func TestHklNegativeCurrentRejected(t *testing.T) {
	sites := []int{27, 28, 35, 36}
	for _, path := range []SolvePath{SolveAuto, SolveDirect} {
		cfg := smallConfig()
		cfg.Solve = path
		sys := mustSystem(t, cfg, sites)
		k := sys.PN.SilNode[27]
		if _, err := sys.Hkl(-1, k, k); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("path %d, Hkl at -1: err = %v, want CodeInvalidInput", path, err)
		}
		if _, err := sys.HColumns(-1, []int{k}, engine.Serial); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("path %d, HColumns at -1: err = %v, want CodeInvalidInput", path, err)
		}
	}
}

func TestOverLimitTiles(t *testing.T) {
	sys := mustSystem(t, smallConfig(), nil)
	_, _, theta, err := sys.PeakAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// With the limit at the peak no tile is strictly over it.
	peak, peakTile := sys.PN.PeakSilicon(theta)
	if over := sys.OverLimitTiles(theta, peak); len(over) != 0 {
		t.Fatalf("tiles over the peak: %v", over)
	}
	// Slightly below the peak the hottest tile must appear.
	over := sys.OverLimitTiles(theta, peak-1e-9)
	found := false
	for _, tt := range over {
		if tt == peakTile {
			found = true
		}
	}
	if !found {
		t.Fatalf("peak tile %d not in over set %v", peakTile, over)
	}
}

func TestTECCoolingReducesHotspot(t *testing.T) {
	cfg := smallConfig()
	passive := mustSystem(t, cfg, nil)
	peak0, tile0, _, err := passive.PeakAt(0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, []int{27, 28, 35, 36})
	if err != nil {
		t.Fatal(err)
	}
	peak5, _, _, err := sys.PeakAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if peak5 >= peak0 {
		t.Fatalf("TEC at 5 A did not cool: %.2f -> %.2f K", peak0, peak5)
	}
	if tile0 != 27 && tile0 != 28 && tile0 != 35 && tile0 != 36 {
		t.Fatalf("passive peak tile %d outside hotspot", tile0)
	}
}

func TestJouleHeatingDominatesAtHighCurrent(t *testing.T) {
	cfg := smallConfig()
	sys, err := NewSystem(cfg, []int{27, 28, 35, 36})
	if err != nil {
		t.Fatal(err)
	}
	peak0, _, _, _ := sys.PeakAt(0)
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe := math.Min(60, lambda*0.5)
	peakHigh, _, _, err := sys.PeakAt(probe)
	if err != nil {
		t.Fatal(err)
	}
	if peakHigh <= peak0 {
		t.Fatalf("improper (excessive) current did not overheat: %.2f vs %.2f K at %.1f A",
			peakHigh, peak0, probe)
	}
}

func TestTECPowerMatchesEq3(t *testing.T) {
	cfg := smallConfig()
	sys, err := NewSystem(cfg, []int{27})
	if err != nil {
		t.Fatal(err)
	}
	i := 4.0
	theta, err := sys.SolveAt(i)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.TECPower(theta, i)
	hot, cold := sys.Array.Hot[0], sys.Array.Cold[0]
	want := cfg.Device.Resistance*i*i + cfg.Device.Seebeck*i*(theta[hot]-theta[cold])
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TECPower = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Fatal("TEC input power not positive at 4 A")
	}
}

func TestEnergyBalanceWithTEC(t *testing.T) {
	// Steady state: chip power + TEC electrical power must equal the heat
	// convected to ambient. This is the global sanity check that the
	// Peltier "conductors to ground" do not create or destroy energy
	// beyond the electrical input.
	cfg := smallConfig()
	sys, err := NewSystem(cfg, []int{27, 28})
	if err != nil {
		t.Fatal(err)
	}
	i := 6.0
	theta, err := sys.SolveAt(i)
	if err != nil {
		t.Fatal(err)
	}
	var chipPower float64
	for _, p := range cfg.TilePower {
		chipPower += p
	}
	tecPower := sys.TECPower(theta, i)

	// Heat leaving through the convection legs is the only path out.
	// The network stores only g_leg * T_amb per node (BaseRHS); since all
	// legs share the ambient temperature, g_leg = BaseRHS[n]/T_amb and
	// the convected power is sum g_leg * (theta_n - T_amb). The chip
	// power is injected before BaseRHS is queried here, so rebuild it
	// from a fresh passive system instead of s.base.
	amb := sys.Cfg.Geom.AmbientK
	var convected float64
	for n, v := range sys.PN.Net.BaseRHS() {
		if num.IsZero(v) {
			continue
		}
		gi := v / amb
		convected += gi * (theta[n] - amb)
	}
	if math.Abs(convected-(chipPower+tecPower)) > 1e-6*(chipPower+tecPower) {
		t.Fatalf("energy balance broken: convected %.6f W, input %.6f W",
			convected, chipPower+tecPower)
	}
}
