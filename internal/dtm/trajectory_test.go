package dtm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tecopt/internal/material"
	"tecopt/internal/transient"
)

var updateTrajectory = flag.Bool("update", false, "rewrite testdata/trajectory.sha256")

// TestTrajectoriesBitIdentical pins every float64 bit of the time
// integrator's outputs on the 6x6 test system: a transient schedule that
// returns to a current it already ran at (0 -> 4 A -> 0 -> 4 A), its
// final field, and the four DTM policies over busy/idle/busy phases. The
// integrator promises the same floating-point operations in the same
// order across refactors, so the hash must not move. A change that moves
// it on purpose regenerates testdata/trajectory.sha256 with
//
//	go test ./internal/dtm -run TestTrajectoriesBitIdentical -update
func TestTrajectoriesBitIdentical(t *testing.T) {
	// The contract is per architecture: the compiler fuses a*b+c into
	// one rounding on arm64, ppc64 and s390x.
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory hash is generated on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	sys, busy, idle := smallSystem(t)
	h := sha256.New()

	tr, err := transient.Simulate(sys, []transient.Phase{
		{Current: 0, Duration: 10},
		{Current: 4, Duration: 10},
		{Current: 0, Duration: 10},
		{Current: 4, Duration: 10},
	}, transient.Options{Dt: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runaway {
		t.Fatal("transient schedule ran away")
	}
	for _, s := range tr.Samples {
		hashFloats(h, s.TimeS, s.PeakK, float64(s.PeakTile), s.Current)
	}
	hashFloats(h, tr.Final...)

	limit := material.CelsiusToKelvin(85)
	phases := []PowerPhase{
		{Duration: 30, TilePower: busy},
		{Duration: 30, TilePower: idle},
		{Duration: 30, TilePower: busy},
	}
	for _, ctrl := range []Controller{
		AlwaysOff{},
		Constant{CurrentA: 4},
		&BangBang{OnAboveK: material.CelsiusToKelvin(60), OffBelowK: material.CelsiusToKelvin(55), CurrentA: 4},
		Proportional{SetpointK: material.CelsiusToKelvin(60), Gain: 1.5, MaxA: 8},
	} {
		res, err := Run(sys, phases, ctrl, limit, RunOptions{Dt: 0.05, ControlEvery: 10})
		if err != nil {
			t.Fatalf("%s: %v", ctrl.Name(), err)
		}
		hashFloats(h, res.MaxPeakK, res.TimeAboveLimitS, res.TECEnergyJ)
		for _, s := range res.Samples {
			hashFloats(h, s.TimeS, s.PeakK, s.CurrentA)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "trajectory.sha256")
	if *updateTrajectory {
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
		t.Fatalf("trajectories moved: sha256 %s, want %s", got, w)
	}
}

func hashFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
