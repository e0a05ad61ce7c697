package core

import (
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
// below it. The kernels behind them (chip generation, band
// factorization, the blocked unit-column solve, the SMW setup and the
// eigendecomposition) promise the same floating-point operations in the
// same order across refactors, so the hash must not move. A change that
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
	type chip struct {
		name  string
		power []float64
	}
	f, g := floorplan.Alpha21364Grid()
	chips := []chip{{"alpha", power.AlphaTilePowers(f, g)}}
	suite, err := power.GenerateHCSuite(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range suite {
		hashFloats(h, c.TilePower...)
		hashFloats(h, c.TotalPower)
		chips = append(chips, chip{c.Name, c.TilePower})
	}
	for seed := int64(1000); seed < 1020; seed++ {
		c, err := power.GenerateHC(fmt.Sprintf("hc:%d", seed), seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, c.TilePower...)
		hashFloats(h, c.TotalPower)
	}

	full := make([]int, 144)
	for i := range full {
		full[i] = i
	}
	for _, c := range chips {
		for _, sites := range [][]int{full, {3, 17, 40, 41, 90}, {0}} {
			sys, err := NewSystem(Config{TilePower: c.power}, sites)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			lam, err := sys.RunawayLimit(RunawayOptions{})
			if err != nil {
				t.Fatalf("%s, %d sites: runaway limit: %v", c.name, len(sites), err)
			}
			rs := sys.reusable()
			if rs == nil {
				t.Fatalf("%s, %d sites: SMW setup failed", c.name, len(sites))
			}
			spectral := rs.Lambda()
			hashFloats(h, lam, spectral)
			for _, frac := range bitIdentityFractions {
				theta, err := sys.SolveAt(frac * spectral)
				if err != nil {
					t.Fatalf("%s, %d sites, i = %g*lambda: %v", c.name, len(sites), frac, err)
				}
				hashFloats(h, theta...)
			}
		}
	}
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

// hashFloats feeds the exact bits of vs to h.
func hashFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
