package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBadFlagValueExit2: a non-integer TEC tile is invalid input, so
// the binary exits 2 at flag parsing, as for an unknown flag.
func TestBadFlagValueExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "thermalsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	err := exec.Command(bin, "-tec", "x").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("thermalsim -tec x: %v, want exit status 2", err)
	}
}
