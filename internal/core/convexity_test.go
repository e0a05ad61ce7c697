package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tecopt/internal/faults"
	"tecopt/internal/tecerr"
)

func TestThetaDecompositionEq10(t *testing.T) {
	// Eq. (10): theta_k(i) = r i^2 eta(i)/2 + zeta(i) must match the
	// directly solved temperature for every tile and current probed.
	sys, err := NewSystem(smallConfig(), []int{27, 28, 35, 36})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []float64{0, 3, 8} {
		for _, tile := range []int{0, 27, 36, 63} {
			via, direct, err := sys.ThetaDecomposition(i, tile)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(via-direct) > 1e-6*(1+math.Abs(direct)) {
				t.Fatalf("Eq.10 mismatch at i=%g tile=%d: %v vs %v", i, tile, via, direct)
			}
		}
	}
}

func TestEtaProperties(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27, 28})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tile := 27
	etas := make([]float64, 0, 4)
	for _, frac := range []float64{0, 0.3, 0.6, 0.9} {
		i := lambda * frac
		eta, etaPrime, zeta, err := sys.EtaZeta(i, tile)
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 3: eta and zeta are nonnegative sums of h_kl.
		if eta < 0 || zeta < 0 {
			t.Fatalf("negative eta=%v or zeta=%v at i=%g", eta, zeta, i)
		}
		// eta' from HDH must match a finite-difference estimate.
		h := lambda * 1e-6
		ep, _, _, err := sys.EtaZeta(i+h, tile)
		if err != nil {
			t.Fatal(err)
		}
		em := eta
		if i > h {
			em, _, _, err = sys.EtaZeta(i-h, tile)
			if err != nil {
				t.Fatal(err)
			}
			fd := (ep - em) / (2 * h)
			if math.Abs(fd-etaPrime) > 1e-3*(1+math.Abs(fd)) {
				t.Fatalf("eta'(%g) = %v, finite difference %v", i, etaPrime, fd)
			}
		}
		etas = append(etas, eta)
	}
	// Figure 6 shape: h_kl (hence eta) is convex and diverges at
	// lambda_m — it may dip first, but very close to the limit it must
	// dominate every earlier sample.
	nearLimit, _, _, err := sys.EtaZeta(lambda*(1-1e-8), tile)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range etas {
		if nearLimit < 10*e {
			t.Fatalf("eta near lambda_m (%v) does not dominate eta=%v", nearLimit, e)
		}
	}
	// Convexity midpoint check on the sampled grid (equispaced fracs).
	if etas[1] > (etas[0]+etas[2])/2+1e-9*(1+etas[1]) {
		t.Fatalf("eta midpoint violation: %v > avg(%v, %v)", etas[1], etas[0], etas[2])
	}
}

func TestEtaZetaBadTile(t *testing.T) {
	sys := mustSystem(t, smallConfig(), []int{27})
	if _, _, _, err := sys.EtaZeta(0, -1); err == nil {
		t.Error("negative tile accepted")
	}
	if _, _, _, err := sys.EtaZeta(0, 9999); err == nil {
		t.Error("out-of-range tile accepted")
	}
}

func TestConvexityCertificate(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27, 28, 35, 36})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4 with a handful of subranges must certify the physical
	// system (eta is positive here, making problem (12) infeasible).
	ok, err := sys.ConvexityCertificate(27, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("convexity not certified for the physical system")
	}
	// No-TEC systems certify trivially.
	passive := mustSystem(t, smallConfig(), nil)
	ok, err = passive.ConvexityCertificate(27, 1)
	if err != nil || !ok {
		t.Fatalf("passive certificate: ok=%v err=%v", ok, err)
	}
}

// A solve that fails inside the Theorem-4 check must fail the
// certificate with its error, not read as an infeasible problem (12),
// which would certify. The fast path is set up first; then a guard
// trip sends every eta evaluation to a direct factorization that the
// perturbed band matrix makes fail as not positive definite.
func TestConvexityCertificateFailsWhenSolvesFail(t *testing.T) {
	sys := mustSystem(t, smallConfig(), []int{27, 28, 35, 36})
	if _, err := sys.RunawayLimit(RunawayOptions{}); err != nil {
		t.Fatal(err)
	}
	faults.Install(faults.New(1).
		Arm(faults.Rule{Site: faults.SiteSMWGuard, Kind: faults.KindNaN}).
		Arm(faults.Rule{Site: faults.SiteBandMatrix, Kind: faults.KindPerturb, Scale: 50}))
	defer faults.Uninstall()
	if _, _, _, err := sys.EtaZeta(1, 27); !errors.Is(err, tecerr.ErrNotPD) {
		t.Fatalf("EtaZeta err = %v, want ErrNotPD", err)
	}
	ok, err := sys.ConvexityCertificate(27, 4)
	if ok || !errors.Is(err, tecerr.ErrNotPD) {
		t.Fatalf("certificate = (%v, %v), want (false, ErrNotPD)", ok, err)
	}
}

func TestObjectiveConvexityNumeric(t *testing.T) {
	// Midpoint test for the peak-temperature objective on [0, 0.9
	// lambda_m]: convex under Conjecture 1 (Theorem 3 + max of convex).
	sys, err := NewSystem(smallConfig(), []int{27, 28, 35, 36})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	peak := func(i float64) float64 {
		p, _, _, err := sys.PeakAt(i)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for trial := 0; trial < 10; trial++ {
		a := rng.Float64() * 0.9 * lambda
		b := rng.Float64() * 0.9 * lambda
		if a > b {
			a, b = b, a
		}
		mid := (a + b) / 2
		if peak(mid) > (peak(a)+peak(b))/2+1e-6 {
			t.Fatalf("objective midpoint violation on [%g, %g]", a, b)
		}
	}
}

func TestConjecture1Campaign(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rep := VerifyConjecture1(rng, ConjectureOptions{Matrices: 40, MaxOrder: 12, PairsPerMatrix: 6})
	if rep.Matrices == 0 || rep.PairsChecked == 0 {
		t.Fatalf("empty campaign: %+v", rep)
	}
	if rep.Violations != 0 {
		t.Fatalf("Conjecture 1 violated: %+v (first: %+v)", rep, rep.FirstViolation)
	}
}

func TestConjecture1StructuredFamilies(t *testing.T) {
	// Beyond the paper's random ensemble, the structured families that
	// mirror actual thermal networks must also satisfy Conjecture 1.
	for fam, name := range map[MatrixFamily]string{
		FamilyGrid: "grid", FamilyPath: "path", FamilyTree: "tree",
	} {
		rng := rand.New(rand.NewSource(int64(fam) + 31))
		rep := VerifyConjecture1(rng, ConjectureOptions{
			Matrices: 25, MaxOrder: 14, PairsPerMatrix: 6, Family: fam,
		})
		if rep.Matrices == 0 {
			t.Errorf("%s family: no matrices tested", name)
		}
		if rep.Violations != 0 {
			t.Errorf("%s family: Conjecture 1 violated: %+v", name, rep)
		}
	}
}

func TestConjectureParallelMatchesSerial(t *testing.T) {
	// Same seed, different worker counts: the report must be identical
	// (per-matrix sub-streams are drawn serially before workers start,
	// and merging is by matrix index, never completion order).
	run := func(workers int) ConjectureReport {
		rng := rand.New(rand.NewSource(99))
		return VerifyConjecture1(rng, ConjectureOptions{
			Matrices: 40, MaxOrder: 12, PairsPerMatrix: 6, Parallel: workers,
		})
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 0} {
		if par := run(workers); par != serial {
			t.Errorf("workers=%d: report %+v != serial %+v", workers, par, serial)
		}
	}
}

func TestConjecture1AllPairsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rep := VerifyConjecture1(rng, ConjectureOptions{Matrices: 10, MaxOrder: 6})
	if rep.Violations != 0 {
		t.Fatalf("violations on exhaustive small campaign: %+v", rep)
	}
	// Exhaustive: pairs = sum of n^2 over matrices >= matrices * 4.
	if rep.PairsChecked < rep.Matrices*4 {
		t.Fatalf("expected exhaustive pair coverage, got %d pairs over %d matrices",
			rep.PairsChecked, rep.Matrices)
	}
}
