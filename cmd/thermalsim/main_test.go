package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestFailureLogRecord: with -log json, a failing run writes one ERROR
// record carrying the error's tecerr code and op, then the plain error
// line, and exits with the code's status (2 for an unknown chip).
func TestFailureLogRecord(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "thermalsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-log", "json", "-chip", "bogus")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("thermalsim -chip bogus: %v, want exit status 2\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "thermalsim: ") {
		t.Fatalf("stderr = %q, want one record and one error line", lines)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record %q: %v", lines[0], err)
	}
	if rec["msg"] != "thermalsim failed" || rec["level"] != "ERROR" || rec["code"] != "invalid_input" || rec["op"] != "chipload" {
		t.Errorf("record = %v, want a thermalsim failed ERROR with code invalid_input and op chipload", rec)
	}
}

// TestTimeoutExit5: a -timeout that expires before the runaway-limit
// search exits with the cancelled status after the lines already
// printed, instead of leaving out lambda_m and exiting 0.
func TestTimeoutExit5(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "thermalsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-tec", "66,67", "-current", "1", "-timeout", "1ms")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 5 {
		t.Fatalf("thermalsim -timeout 1ms: %v, want exit status 5\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	if strings.Contains(stdout.String(), "lambda_m") {
		t.Errorf("a cut run printed lambda_m:\n%s", &stdout)
	}
	if !strings.HasPrefix(stderr.String(), "thermalsim: ") || !strings.Contains(stderr.String(), "cancelled") {
		t.Errorf("stderr = %q, want one thermalsim: ... cancelled line", &stderr)
	}
}
