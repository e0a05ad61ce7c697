package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBadFamilyExit2: an unknown -family is invalid input, so the
// binary exits 2 at flag parsing, as for an unknown flag, before the
// run starts (no -metrics-out report is written).
func TestBadFamilyExit2(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "conjecture")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	metrics := filepath.Join(dir, "run.json")
	out, err := exec.Command(bin, "-family", "bogus", "-metrics-out", metrics).Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("conjecture -family bogus: %v, want exit status 2", err)
	}
	if len(out) != 0 {
		t.Errorf("conjecture -family bogus wrote to stdout:\n%s", out)
	}
	if _, err := os.Stat(metrics); err == nil {
		t.Error("conjecture -family bogus started a run: -metrics-out was written")
	}
}
