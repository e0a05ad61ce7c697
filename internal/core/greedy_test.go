package core

import (
	"math"
	"testing"

	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/power"
)

func TestGreedyDeployTrivialWhenCool(t *testing.T) {
	cfg := smallConfig()
	res, err := GreedyDeploy(cfg, material.CelsiusToKelvin(200), CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || len(res.Sites) != 0 {
		t.Fatalf("cool chip should need no TECs: success=%v sites=%v", res.Success, res.Sites)
	}
	if !num.IsZero(res.Current.IOpt) {
		t.Fatalf("IOpt = %v, want 0", res.Current.IOpt)
	}
}

// TestGreedyDeployCompliantReportsPassivePoint: on a chip already under
// its limit (HC09 at 90 C) the deployment's operating point is the one
// OptimizeCurrent reports for the same TEC-less system, with its
// hottest tile, lambda_m = +Inf and its one solve.
func TestGreedyDeployCompliantReportsPassivePoint(t *testing.T) {
	suite, err := power.GenerateHCSuite(power.DefaultHCSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TilePower: suite[8].TilePower}
	res, err := GreedyDeploy(cfg, material.CelsiusToKelvin(90), CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || len(res.Sites) != 0 || len(res.Iterations) != 0 {
		t.Fatalf("%s at 90 C should be compliant without TECs: success=%v sites=%v",
			suite[8].Name, res.Success, res.Sites)
	}
	want, err := mustSystem(t, cfg, nil).OptimizeCurrent(CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Current
	if got.PeakTile != want.PeakTile || !num.ExactEqual(got.PeakK, want.PeakK) ||
		!math.IsInf(got.LambdaM, 1) || !math.IsInf(want.LambdaM, 1) ||
		got.Evaluations != want.Evaluations || !num.IsZero(got.IOpt) {
		t.Errorf("compliant point {tile %d, peak %v K, lambda_m %v, evals %d, i %v}, want {tile %d, peak %v K, lambda_m %v, evals %d, i 0}",
			got.PeakTile, got.PeakK, got.LambdaM, got.Evaluations, got.IOpt,
			want.PeakTile, want.PeakK, want.LambdaM, want.Evaluations)
	}
}

func TestGreedyDeploySuccess(t *testing.T) {
	cfg := smallConfig()
	// Pick a limit between the passive peak and what the TECs achieve.
	passive := mustSystem(t, cfg, nil)
	peak0, _, _, _ := passive.PeakAt(0)
	limit := peak0 - 2
	res, err := GreedyDeploy(cfg, limit, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("greedy failed; final peak %.2f K, limit %.2f K", res.Current.PeakK, limit)
	}
	if res.Current.PeakK > limit {
		t.Fatalf("success reported but peak %.3f > limit %.3f", res.Current.PeakK, limit)
	}
	if len(res.Sites) == 0 || len(res.Iterations) == 0 {
		t.Fatal("no deployment recorded")
	}
	if !num.ExactEqual(res.NoTECPeakK, peak0) {
		t.Fatalf("NoTECPeakK = %v, want %v", res.NoTECPeakK, peak0)
	}
	// Every deployed site must have been over-limit at some iteration:
	// the greedy covers exactly the union of added sets.
	added := map[int]bool{}
	for _, it := range res.Iterations {
		for _, tt := range it.Added {
			added[tt] = true
		}
	}
	for _, s := range res.Sites {
		if !added[s] {
			t.Fatalf("site %d never in an over-limit set", s)
		}
	}
	// Cooling swing must be positive.
	if res.NoTECPeakK-res.Current.PeakK <= 0 {
		t.Fatal("no cooling swing")
	}
}

func TestGreedyDeployFailureWhenLimitUnreachable(t *testing.T) {
	cfg := smallConfig()
	// A limit far below what any deployment can reach.
	res, err := GreedyDeploy(cfg, material.CelsiusToKelvin(50), CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("impossible limit reported as success")
	}
	if len(res.Iterations) == 0 {
		t.Fatal("failure without iterations")
	}
	last := res.Iterations[len(res.Iterations)-1]
	if len(last.OverLimit) == 0 {
		t.Fatal("failure but no tiles over limit")
	}
	// Failure condition of Figure 5: every over-limit tile covered.
	covered := map[int]bool{}
	for _, s := range res.Sites {
		covered[s] = true
	}
	for _, tt := range last.OverLimit {
		if !covered[tt] {
			t.Fatalf("failure reported but tile %d is over limit and uncovered", tt)
		}
	}
}

func TestGreedyDeployCascade(t *testing.T) {
	// Engineer the "two consequences" phenomenon of Section V.B: tiles
	// just below the limit that the first deployment's TEC heat pushes
	// over, forcing a second iteration. A ring of near-limit tiles
	// surrounds a hot core; the ring is far enough to receive little
	// lateral cooling but shares the package heating.
	cfg := smallConfig()
	p := make([]float64, 64)
	for i := range p {
		p[i] = 0.05
	}
	p[27] = 1.1 // hot core, clearly over the limit
	// Distant warm tiles just below the limit.
	for _, tt := range []int{0, 7, 56, 63} {
		p[tt] = 0.62
	}
	cfg.TilePower = p
	passive, err := NewSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, theta, _ := passive.PeakAt(0)
	sil := passive.PN.SiliconTemps(theta)
	// Set the limit between the corner temperature and the core, just a
	// hair above the corners.
	corner := sil[0]
	limit := corner + 0.05
	if sil[27] <= limit {
		t.Skip("power profile did not produce the intended ordering")
	}
	res, err := GreedyDeploy(cfg, limit, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("expected a cascade (>= 2 iterations), got %d; sites %v",
			len(res.Iterations), res.Sites)
	}
	// The cascade must have recruited the corner tiles.
	foundCorner := false
	for _, s := range res.Sites {
		if s == 0 || s == 7 || s == 56 || s == 63 {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Fatalf("cascade did not recruit near-limit tiles: %v", res.Sites)
	}
}

func TestFullCoverWorseThanGreedy(t *testing.T) {
	// The paper's central comparison: covering every tile reduces the
	// achievable minimum peak temperature (cooling swing loss).
	cfg := smallConfig()
	passive := mustSystem(t, cfg, nil)
	peak0, _, _, _ := passive.PeakAt(0)
	res, err := GreedyDeploy(cfg, peak0-2, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, fcSys, err := FullCover(cfg, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fcSys.Array.Count() != 64 {
		t.Fatalf("full cover attached %d devices, want 64", fcSys.Array.Count())
	}
	if fc.PeakK <= res.Current.PeakK {
		t.Fatalf("full cover (%.2f K) not worse than greedy (%.2f K)",
			fc.PeakK, res.Current.PeakK)
	}
	loss := fc.PeakK - res.Current.PeakK
	if loss < 0.5 || loss > 20 {
		t.Fatalf("swing loss %.2f K outside plausible range", loss)
	}
}

func TestGreedyDeployDeterministic(t *testing.T) {
	cfg := smallConfig()
	passive := mustSystem(t, cfg, nil)
	peak0, _, _, _ := passive.PeakAt(0)
	a, err := GreedyDeploy(cfg, peak0-2, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyDeploy(cfg, peak0-2, CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sites) != len(b.Sites) || math.Abs(a.Current.IOpt-b.Current.IOpt) > 1e-12 {
		t.Fatal("GreedyDeploy not deterministic")
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatal("site sets differ between runs")
		}
	}
}
