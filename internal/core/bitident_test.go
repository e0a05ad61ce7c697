package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tecopt/internal/floorplan"
	"tecopt/internal/power"
)

var updateBitIdentity = flag.Bool("update", false, "rewrite testdata/bitident.sha256")

// bitIdentityFractions are the currents, as fractions of the spectral
// runaway limit, at which every pinned system is solved.
var bitIdentityFractions = []float64{0, 0.1, 0.5, 0.9, 0.999}

// TestSolverOutputsBitIdentical pins the exact bits of the solver's
// outputs on the paper's inputs: the tile powers of the generated chips,
// and for the eleven Table I chips under three deployments the runaway
// limit (bisection and spectral) and the solved field at five currents
// below it. The kernels behind them (chip generation, the minimum-degree
// ordering, the sparse Cholesky factorization, the blocked unit-column
// solve, the SMW setup and the eigendecomposition) promise the same
// floating-point operations in the same order across refactors, so the
// hash must not move. A change that
// moves it on purpose regenerates testdata/bitident.sha256 with
//
//	go test ./internal/core -run TestSolverOutputsBitIdentical -update
func TestSolverOutputsBitIdentical(t *testing.T) {
	// The contract is per architecture: the compiler fuses a*b+c into
	// one rounding on arm64, ppc64 and s390x, so their bits legitimately
	// differ from amd64's, where the hash was generated.
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-identity hash is generated on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h := sha256.New()
	spec := power.DefaultHCSpec()
	suite, err := power.GenerateHCSuite(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range suite {
		hashFloats(h, c.TilePower...)
		hashFloats(h, c.TotalPower)
	}
	for seed := int64(1000); seed < 1020; seed++ {
		c, err := power.GenerateHC(fmt.Sprintf("hc:%d", seed), seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, c.TilePower...)
		hashFloats(h, c.TotalPower)
	}
	eachPinnedSystem(t, func(name string, sys *System, lam, spectral float64) {
		hashFloats(h, lam, spectral)
		for _, frac := range bitIdentityFractions {
			theta, err := sys.SolveAt(frac * spectral)
			if err != nil {
				t.Fatalf("%s, i = %g*lambda: %v", name, frac, err)
			}
			hashFloats(h, theta...)
		}
	})
	got := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "bitident.sha256")
	if *updateBitIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing hash (rerun with -update): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("solver outputs moved: sha256 %s, want %s", got, w)
	}
}

// eachPinnedSystem calls fn, in hash order, with every system the hash
// pins: the eleven Table I chips (Alpha, then the HC suite) under full
// cover, five sites and one site, with the runaway limit from the
// bisection and from the spectrum.
func eachPinnedSystem(t *testing.T, fn func(name string, sys *System, lam, spectral float64)) {
	t.Helper()
	f, g := floorplan.Alpha21364Grid()
	names, powers := []string{"alpha"}, [][]float64{power.AlphaTilePowers(f, g)}
	suite, err := power.GenerateHCSuite(power.DefaultHCSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range suite {
		names, powers = append(names, c.Name), append(powers, c.TilePower)
	}
	full := make([]int, 144)
	for i := range full {
		full[i] = i
	}
	for c, p := range powers {
		for _, sites := range [][]int{full, {3, 17, 40, 41, 90}, {0}} {
			name := fmt.Sprintf("%s, %d sites", names[c], len(sites))
			sys, err := NewSystem(Config{TilePower: p}, sites)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lam, err := sys.RunawayLimit(RunawayOptions{})
			if err != nil {
				t.Fatalf("%s: runaway limit: %v", name, err)
			}
			rs := sys.reusable(context.Background())
			if rs == nil {
				t.Fatalf("%s: SMW setup failed", name)
			}
			fn(name, sys, lam, rs.Lambda())
		}
	}
}

// Every field read in pole form on the pinned inputs satisfies the
// network equation (G - i*D) theta = p(i) to a normwise backward error
// ||(G - i*D) theta - p||_inf / (||G - i*D||_inf ||theta||_inf +
// ||p||_inf) of 1e-13, and the silicon-rows read of the optimizer's
// objective is bitwise those rows of the field. A wrong P2, phi or load
// weight breaks the first, and the conditioning guard cannot see it.
// Unlike the hash, this holds on every architecture.
func TestPoleReadsSatisfyNetworkEquation(t *testing.T) {
	ctx := context.Background()
	eachPinnedSystem(t, func(name string, sys *System, _, spectral float64) {
		sil := make([]float64, sys.PN.NumTiles())
		for _, frac := range bitIdentityFractions {
			i := frac * spectral
			theta, err := sys.SolveAt(i)
			if err != nil {
				t.Fatalf("%s, i = %g*lambda: %v", name, frac, err)
			}
			a, p := sys.Matrix(i), sys.RHS(i)
			res := a.MulVec(theta)
			var resN, aN, thetaN, pN float64
			for k := range res {
				_, vals := a.RowNNZ(k)
				var row float64
				for _, v := range vals {
					row += math.Abs(v)
				}
				resN, aN = math.Max(resN, math.Abs(res[k]-p[k])), math.Max(aN, row)
				thetaN, pN = math.Max(thetaN, math.Abs(theta[k])), math.Max(pN, math.Abs(p[k]))
			}
			if berr := resN / (aN*thetaN + pN); berr > 1e-13 {
				t.Errorf("%s, i = %g*lambda: backward error %.3g, want <= 1e-13", name, frac, berr)
			}
			if err := sys.readLoad(ctx, i, sys.PN.SilNode, sil); err != nil {
				t.Fatalf("%s, i = %g*lambda: silicon rows: %v", name, frac, err)
			}
			for tile, v := range sil {
				if math.Float64bits(v) != math.Float64bits(theta[sys.PN.SilNode[tile]]) {
					t.Fatalf("%s, i = %g*lambda, tile %d: rows read %v, field %v", name, frac, tile, v, theta[sys.PN.SilNode[tile]])
				}
			}
		}
	})
}

// hashFloats feeds the exact bits of vs to h.
func hashFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
