package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestParseTiles(t *testing.T) {
	cols, rows, err := parseTiles("12x12")
	if err != nil || cols != 12 || rows != 12 {
		t.Fatalf("parseTiles(12x12) = %d,%d,%v", cols, rows, err)
	}
	cols, rows, err = parseTiles("16X8")
	if err != nil || cols != 16 || rows != 8 {
		t.Fatalf("parseTiles(16X8) = %d,%d,%v", cols, rows, err)
	}
	for _, bad := range []string{"12", "ax12", "12xb", ""} {
		if _, _, err := parseTiles(bad); err == nil {
			t.Errorf("parseTiles(%q) accepted", bad)
		}
	}
}

// TestBadFlagValuesExit2: a flag value outside its set is invalid
// input, so the binary exits 2 at flag parsing, as for an unknown
// flag. The retired -trace-format=flight is one such value.
func TestBadFlagValuesExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tecopt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-method", "bogus"},
		{"-tiles", "bad"},
		{"-trace-format", "flight"},
		{"-log", "yaml"},
		{"-log-level", "loud"},
	} {
		t.Run(args[0][1:], func(t *testing.T) {
			err := exec.Command(bin, args...).Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("tecopt %v: %v, want exit status 2", args, err)
			}
		})
	}
}

// TestJSONCompliantChipLambdaNull: a chip already under its limit
// (HC09 at 90 C) deploys no TEC, so lambda_m is +Inf, which -json
// writes as null.
func TestJSONCompliantChipLambdaNull(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tecopt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-chip", "hc09", "-limit", "90", "-json").Output()
	if err != nil {
		t.Fatalf("tecopt -json: %v", err)
	}
	var res map[string]any
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if res["success"] != true || res["num_tecs"] != 0.0 {
		t.Fatalf("HC09 at 90 C should succeed without TECs:\n%s", out)
	}
	if v, ok := res["lambda_m_a"]; !ok || v != nil {
		t.Errorf("lambda_m_a = %v (present %v), want null:\n%s", v, ok, out)
	}
}
