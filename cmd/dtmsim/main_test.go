package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBadPolicyExit2: an unknown -policy is invalid input, so the
// binary exits 2 at flag parsing, as for an unknown flag, before any
// deployment runs.
func TestBadPolicyExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dtmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-policy", "bogus").Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("dtmsim -policy bogus: %v, want exit status 2", err)
	}
	if len(out) != 0 {
		t.Errorf("dtmsim -policy bogus wrote to stdout:\n%s", out)
	}
}
