package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagValueExit2: an unknown -chip is invalid input, so the
// binary exits 2 at flag parsing, as for an unknown flag.
func TestBadFlagValueExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchtable")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	err := exec.Command(bin, "-chip", "x").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("benchtable -chip x: %v, want exit status 2", err)
	}
}

// TestTimeoutFlushesAndLogs: a run cut by -timeout exits 5 (cancelled),
// its -log json record carries code cancelled, and -metrics-out is
// still written on the failure path.
func TestTimeoutFlushesAndLogs(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchtable")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	metrics := filepath.Join(dir, "run.json")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-log", "json", "-timeout", "1ms", "-chip", "alpha", "-metrics-out", metrics)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 5 {
		t.Fatalf("benchtable -timeout 1ms: %v, want exit status 5\n%s", err, stderr.String())
	}
	first, _, _ := strings.Cut(stderr.String(), "\n")
	var rec map[string]any
	if err := json.Unmarshal([]byte(first), &rec); err != nil {
		t.Fatalf("record %q: %v", first, err)
	}
	if rec["msg"] != "benchtable failed" || rec["code"] != "cancelled" {
		t.Errorf("record = %v, want a benchtable failed record with code cancelled", rec)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("-metrics-out not written on the timeout path: %v", err)
	}
}
