package main

// Binary smoke tests: build the real tecserve executable, drive every
// endpoint over real HTTP, force a 429 through a tiny admission
// configuration, and prove the SIGTERM drain finishes in-flight work
// and exits 0, and that an expired -timeout drains to exit 5. make
// serve-smoke (and CI) runs exactly this file.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildServe compiles the tecserve binary once per test run.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tecserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// tinyBody is a 4x4 explicit-power request body shared by the smoke
// calls; extra carries endpoint-specific fields.
func tinyBody(extra map[string]any) []byte {
	p := make([]float64, 16)
	for i := range p {
		p[i] = 0.15
	}
	p[5] = 1.2
	body := map[string]any{
		"chip": map[string]any{
			"cols": 4, "rows": 4,
			"spreader_cells": 5, "sink_cells": 5,
			"tile_power_w": p,
		},
		"sites": []int{5},
	}
	for k, v := range extra {
		body[k] = v
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return raw
}

// startServe launches the binary and returns its base URL, a SIGTERM
// trigger, and a wait func reporting the exit code and stderr.
func startServe(t *testing.T, args ...string) (url string, sigterm func(), wait func() (int, string)) {
	t.Helper()
	cmd := exec.Command(buildServe(t), append([]string{"-addr", "localhost:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v (stderr: %s)", err, stderr.String())
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	url = strings.TrimSpace(line[i+len(marker):])
	// Drain the rest of stdout so the child never blocks on the pipe.
	go func() { _, _ = io.Copy(io.Discard, stdout) }()

	sigterm = func() {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Errorf("SIGTERM: %v", err)
		}
	}
	wait = func() (int, string) {
		err := cmd.Wait()
		code := 0
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("wait: %v", err)
			}
			code = ee.ExitCode()
		}
		return code, stderr.String()
	}
	return url, sigterm, wait
}

func postStatus(t *testing.T, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, m
}

// TestServeBinarySmoke is the end-to-end drill: every endpoint over
// real HTTP, a forced 429 with one worker and no queue, the
// cross-request solver-cache hit visible in /metrics, and a SIGTERM
// drain that finishes the in-flight request and exits 0.
func TestServeBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs the executable")
	}
	// The injected sleep arms hit 6 at serve.handle: requests 1-5 are
	// the fast endpoint drill, request 6 parks in the single worker
	// slot long enough to shed request 7 and to be mid-flight at
	// SIGTERM.
	url, sigterm, wait := startServe(t,
		"-workers", "1", "-queue", "0",
		"-faults", "sleep@serve.handle:onhit=6,ms=800")

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	status, m := postStatus(t, url+"/v1/solve", tinyBody(map[string]any{"current_a": 0.5}))
	if status != http.StatusOK || m["peak_c"] == nil {
		t.Fatalf("solve: status %d body %v", status, m)
	}
	status, _ = postStatus(t, url+"/v1/solve", tinyBody(map[string]any{"current_a": 0.5}))
	if status != http.StatusOK {
		t.Fatalf("solve#2: status %d", status)
	}
	status, m = postStatus(t, url+"/v1/optimize-current", tinyBody(nil))
	if status != http.StatusOK || m["i_opt_a"] == nil {
		t.Fatalf("optimize-current: status %d body %v", status, m)
	}
	status, m = postStatus(t, url+"/v1/runaway-limit", tinyBody(nil))
	if status != http.StatusOK || m["has_limit"] != true {
		t.Fatalf("runaway-limit: status %d body %v", status, m)
	}
	status, m = postStatus(t, url+"/v1/sweep", tinyBody(map[string]any{
		"k": 5, "l": 5, "currents_a": []float64{0.1, 0.3},
	}))
	if status != http.StatusOK || m["done"] != float64(2) {
		t.Fatalf("sweep: status %d body %v", status, m)
	}

	// Request 6 hits the injected 800ms sleep and parks in the only
	// worker slot; it must still answer 200 — even though we SIGTERM
	// the server while it is in flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, m := postStatus(t, url+"/v1/solve", tinyBody(map[string]any{"current_a": 0.4}))
		if status != http.StatusOK {
			t.Errorf("in-flight request: status %d body %v, want 200 across drain", status, m)
		}
	}()
	time.Sleep(200 * time.Millisecond) // request 6 is now sleeping in the slot

	// Request 7: one worker, no waiting room — backpressure contract.
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(tinyBody(map[string]any{"current_a": 0.2})))
	if err != nil {
		t.Fatal(err)
	}
	shed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(shed.Body)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full server: status %d body %s, want 429", shed.StatusCode, shedBody)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// The cross-request reuse scoreboard: solve#2 shared solve#1's
	// system, which owns its SMW solver state, and the counters prove
	// it on /metrics.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count, Max uint64
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	resp.Body.Close()
	if snap.Counters["core.system.reusable_setups"] < 1 {
		t.Errorf("core.system.reusable_setups = %d, want >= 1", snap.Counters["core.system.reusable_setups"])
	}
	// Each setup reports its factor's health: the backward error of the
	// base load's solve, in machine epsilons.
	if be := snap.Histograms["thermal.reusable.backward_error_eps"]; be.Count < 1 || be.Max > 16 {
		t.Errorf("thermal.reusable.backward_error_eps: %d observations, max %d; want >= 1, max <= 16", be.Count, be.Max)
	}
	if snap.Counters["tecserve.system_cache.hits"] < 1 {
		t.Errorf("tecserve.system_cache.hits = %d, want >= 1", snap.Counters["tecserve.system_cache.hits"])
	}
	if snap.Counters["tecserve.status.429"] < 1 {
		t.Errorf("tecserve.status.429 = %d, want >= 1", snap.Counters["tecserve.status.429"])
	}

	// SIGTERM with request 6 still sleeping: drain must finish it and
	// exit 0.
	sigterm()
	wg.Wait()
	code, errOut := wait()
	if code != 0 {
		t.Fatalf("exit code %d after SIGTERM drain, want 0\nstderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "drained cleanly") {
		t.Errorf("stderr missing clean-drain line:\n%s", errOut)
	}
}

// TestServeBinaryBadFlags pins the CLI failure contract: a bad -faults
// spec exits with the invalid-input status code before listening.
func TestServeBinaryBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs the executable")
	}
	cmd := exec.Command(buildServe(t), "-faults", "warp@nowhere")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bad -faults accepted:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want invalid-input code 2\n%s", err, out)
	}
}

// TestServeBinaryTimeout: an expired -timeout drains like SIGTERM and
// exits with the cancelled status 5, after serving until then.
func TestServeBinaryTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test builds and runs the executable")
	}
	url, sigterm, wait := startServe(t, "-timeout", "2s")
	if status, m := postStatus(t, url+"/v1/solve", tinyBody(map[string]any{"current_a": 0.5})); status != http.StatusOK {
		t.Fatalf("solve before the deadline: status %d body %v", status, m)
	}
	// A server that ignores -timeout would serve on: SIGTERM it after a
	// bound, so the test fails instead of hanging.
	watchdog := time.AfterFunc(30*time.Second, func() {
		t.Error("tecserve still serving 30 s after a 2 s -timeout")
		sigterm()
	})
	defer watchdog.Stop()
	code, errOut := wait()
	if code != 5 {
		t.Fatalf("exit code %d, want 5 after -timeout\nstderr: %s", code, errOut)
	}
	for _, want := range []string{"-timeout expired — draining", "drained cleanly", "tecserve: -timeout expired: context deadline exceeded"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
}
