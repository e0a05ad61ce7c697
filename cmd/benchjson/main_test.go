package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"tecopt/internal/num"
)

const sampleStream = `{"Action":"start","Package":"tecopt/internal/bench"}
{"Action":"output","Package":"tecopt/internal/bench","Output":"goos: linux\n"}
{"Action":"output","Package":"tecopt/internal/bench","Output":"BenchmarkEngine_TableI-8 \t       1\t1234567890 ns/op\t  456789 B/op\t    1234 allocs/op\n"}
{"Action":"output","Package":"tecopt/internal/core","Output":"BenchmarkEngine_HklSweep-8 \t       2\t 98765432 ns/op\t   12345 B/op\t      67 allocs/op\n"}
{"Action":"output","Package":"tecopt/internal/bench","Output":"PASS\n"}
{"Action":"pass","Package":"tecopt/internal/bench"}
`

// hostStream is sampleStream with the "cpu:" line go test prints per
// package, so that its results carry the complete fingerprint testHost.
const hostStream = `{"Action":"output","Package":"tecopt/internal/bench","Output":"cpu: Test CPU\n"}
{"Action":"output","Package":"tecopt/internal/core","Output":"cpu: Test CPU\n"}
` + sampleStream

var testHost = Host{CPU: "Test CPU", GOMAXPROCS: 8, Go: runtime.Version()}

func TestParseStream(t *testing.T) {
	results, err := parseStream(strings.NewReader(sampleStream))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(results), results)
	}
	// Sorted by package: internal/bench before internal/core.
	first := results[0]
	if first.Name != "BenchmarkEngine_TableI" {
		t.Errorf("name = %q (procs suffix must be stripped)", first.Name)
	}
	if first.Package != "tecopt/internal/bench" {
		t.Errorf("package = %q", first.Package)
	}
	if first.Iterations != 1 || !num.ExactEqual(first.NsPerOp, 1234567890) {
		t.Errorf("iters/ns = %d/%v", first.Iterations, first.NsPerOp)
	}
	if first.BytesPerOp != 456789 || first.AllocsPerOp != 1234 {
		t.Errorf("B/op=%d allocs/op=%d", first.BytesPerOp, first.AllocsPerOp)
	}
	if results[1].Name != "BenchmarkEngine_HklSweep" || !num.ExactEqual(results[1].NsPerOp, 98765432) {
		t.Errorf("second result: %+v", results[1])
	}
}

// TestParseStreamReassemblesSplitLines covers what `go test -json`
// actually emits: the benchmark name flushes as its own output event
// (trailing tab, no newline) and the measurements arrive in the next
// event, possibly interleaved with another package's events.
func TestParseStreamReassemblesSplitLines(t *testing.T) {
	in := `{"Action":"output","Package":"p/a","Output":"BenchmarkEngine_HklSweep/serial         \t"}
{"Action":"output","Package":"p/b","Output":"BenchmarkOther \t"}
{"Action":"output","Package":"p/a","Output":"       1\t  78241064 ns/op\t27409240 B/op\t    1786 allocs/op\n"}
{"Action":"output","Package":"p/b","Output":" 3\t 11 ns/op\n"}
`
	results, err := parseStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(results), results)
	}
	if results[0].Name != "BenchmarkEngine_HklSweep/serial" || results[0].AllocsPerOp != 1786 {
		t.Errorf("split-line result mangled: %+v", results[0])
	}
	if results[1].Name != "BenchmarkOther" || results[1].Iterations != 3 {
		t.Errorf("interleaved package mangled: %+v", results[1])
	}
}

func TestParseStreamIgnoresNoise(t *testing.T) {
	in := `{"Action":"output","Output":"goos: linux\n"}
{"Action":"output","Output":"Benchmark notes: ns/op is wall time\n"}
{"Action":"output","Output":"cpu: some chip\n"}
`
	results, err := parseStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("noise parsed as results: %+v", results)
	}
}

func TestRunEmitsStableJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleStream), &out, nil); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(results) != 2 {
		t.Fatalf("round-trip lost results: %+v", results)
	}
}

func TestRunFailsOnEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(""), &out, nil); err == nil {
		t.Fatal("empty input must fail: a benchmark run that produced nothing is a broken gate")
	}
}

// Merge semantics: re-measured entries overwrite the snapshot, entries
// the run did not touch survive, and the output stays sorted.
func TestRunMergeKeepsUntouchedEntries(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkEngine_TableI", Package: "tecopt/internal/bench", Iterations: 1, NsPerOp: 9e9},
		{Name: "BenchmarkEngine_Old", Package: "tecopt/internal/core", Iterations: 1, NsPerOp: 5,
			Host: &Host{CPU: "Old CPU", GOMAXPROCS: 1, Go: "go1.22.0"}},
	}
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleStream), &out, base); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d entries, want 3 (2 measured + 1 kept): %+v", len(results), results)
	}
	byKey := map[string]Result{}
	for _, r := range results {
		byKey[key(r)] = r
	}
	merged := byKey["tecopt/internal/bench\x00BenchmarkEngine_TableI"]
	if !num.ExactEqual(merged.NsPerOp, 1234567890) {
		t.Errorf("re-measured entry not overwritten: %+v", merged)
	}
	if merged.Host == nil || *merged.Host != (Host{GOMAXPROCS: 8, Go: runtime.Version()}) {
		t.Errorf("re-measured entry host %v, want this run's", merged.Host)
	}
	if old, ok := byKey["tecopt/internal/core\x00BenchmarkEngine_Old"]; !ok {
		t.Error("untouched snapshot entry dropped by merge")
	} else if old.Host == nil || old.Host.CPU != "Old CPU" {
		t.Errorf("untouched entry host %v, want the snapshot's", old.Host)
	}
	for i := 1; i < len(results); i++ {
		a, b := results[i-1], results[i]
		if a.Package > b.Package || (a.Package == b.Package && a.Name > b.Name) {
			t.Fatalf("merged output not sorted at %d: %+v", i, results)
		}
	}
}

// Gate semantics on the snapshot's own host: within tolerance passes,
// beyond it fails, and new benchmarks missing from the snapshot never
// fail the gate.
func TestGateTolerance(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkEngine_TableI", Package: "tecopt/internal/bench", NsPerOp: 1234567890, Host: &testHost},
		{Name: "BenchmarkEngine_HklSweep", Package: "tecopt/internal/core", NsPerOp: 98765432, Host: &testHost},
	}
	var out bytes.Buffer
	if err := gate(strings.NewReader(hostStream), &out, base, 0.20); err != nil {
		t.Fatalf("identical timings failed the gate: %v\n%s", err, out.String())
	}

	// Shrink the snapshot so the measured TableI is a >20% regression.
	base[0].NsPerOp = 1234567890 / 1.5
	out.Reset()
	err := gate(strings.NewReader(hostStream), &out, base, 0.20)
	if err == nil {
		t.Fatalf("50%% regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("gate report missing FAIL line:\n%s", out.String())
	}
	// A generous tolerance admits the same measurement.
	out.Reset()
	if err := gate(strings.NewReader(hostStream), &out, base, 0.60); err != nil {
		t.Fatalf("regression within widened tolerance failed: %v", err)
	}

	// Unknown benchmarks are reported as NEW, not failed.
	out.Reset()
	if err := gate(strings.NewReader(hostStream), &out, base[:1], 0.60); err != nil {
		t.Fatalf("benchmark absent from snapshot failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "NEW") {
		t.Fatalf("gate report missing NEW line:\n%s", out.String())
	}
}

// The gate also fails on allocs/op or B/op above the snapshot by more
// than 1%, whatever -tol says, and passes improvements and figures
// within 1%.
func TestGateAllocations(t *testing.T) {
	// sampleStream measures TableI at 456789 B/op, 1234 allocs/op and
	// HklSweep at 12345 B/op, 67 allocs/op.
	snapshot := func(tableBytes, tableAllocs int64) []Result {
		return []Result{
			{Name: "BenchmarkEngine_TableI", Package: "tecopt/internal/bench", NsPerOp: 1234567890,
				BytesPerOp: tableBytes, AllocsPerOp: tableAllocs},
			{Name: "BenchmarkEngine_HklSweep", Package: "tecopt/internal/core", NsPerOp: 98765432,
				BytesPerOp: 12345, AllocsPerOp: 67},
		}
	}
	for _, tc := range []struct {
		name          string
		bytes, allocs int64
		fail          string // the regressed figure, "" for a pass
	}{
		{"identical", 456789, 1234, ""},
		{"within 1%", 453000, 1223, ""},
		{"improvement", 900000, 2000, ""},
		{"allocs regression", 456789, 1200, "allocs/op"},
		{"bytes regression", 440000, 1234, "B/op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			// A tolerance wide enough for any ns/op: only memory can fail.
			err := gate(strings.NewReader(sampleStream), &out, snapshot(tc.bytes, tc.allocs), 10)
			if tc.fail == "" {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("%s regression passed the gate:\n%s", tc.fail, out.String())
			}
			if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "["+tc.fail+"]") {
				t.Fatalf("gate report does not flag %s:\n%s", tc.fail, out.String())
			}
		})
	}
}

// Every result carries the fingerprint of its host: the CPU model of
// its package's "cpu:" line, GOMAXPROCS from its -N suffix (1 without
// one in a go test stream, unknown on a raw line), and the Go version.
func TestParseStreamHostFingerprint(t *testing.T) {
	in := `{"Action":"output","Package":"p/a","Output":"cpu: Intel(R) Xeon(R) Processor\n"}
{"Action":"output","Package":"p/b","Output":"cpu: AMD EPYC 7B13\n"}
{"Action":"output","Package":"p/a","Output":"BenchmarkA-2 \t 1\t 10 ns/op\n"}
{"Action":"output","Package":"p/b","Output":"BenchmarkB \t 1\t 10 ns/op\n"}
BenchmarkServe_solve_p50 5 100 ns/op
`
	results, err := parseStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Host{
		"BenchmarkA":               {CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2, Go: runtime.Version()},
		"BenchmarkB":               {CPU: "AMD EPYC 7B13", GOMAXPROCS: 1, Go: runtime.Version()},
		"BenchmarkServe_solve_p50": {Go: runtime.Version()},
	}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d: %+v", len(results), len(want), results)
	}
	for _, r := range results {
		if r.Host == nil || *r.Host != want[r.Name] {
			t.Errorf("%s host %+v, want %+v", r.Name, r.Host, want[r.Name])
		}
	}
}

// A failing gate line is followed by the snapshot entry's host and the
// run's; a passing one is not. On another host only memory can fail.
func TestGateFailurePrintsHosts(t *testing.T) {
	stream := `{"Action":"output","Package":"tecopt/internal/bench","Output":"cpu: Run CPU\n"}
` + sampleStream
	base := []Result{
		{Name: "BenchmarkEngine_TableI", Package: "tecopt/internal/bench", NsPerOp: 1, AllocsPerOp: 1,
			Host: &Host{CPU: "Snapshot CPU", GOMAXPROCS: 1, Go: "go1.22.0"}},
		{Name: "BenchmarkEngine_HklSweep", Package: "tecopt/internal/core", NsPerOp: 98765432},
	}
	var out bytes.Buffer
	if err := gate(strings.NewReader(stream), &out, base, 0.20); err == nil {
		t.Fatalf("regression passed the gate:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{
		"snapshot host: cpu Snapshot CPU, GOMAXPROCS 1, go1.22.0",
		"run host:      cpu Run CPU, GOMAXPROCS 8, " + runtime.Version(),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("gate report missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "snapshot host:"); n != 1 {
		t.Errorf("%d host reports, want 1 (only the failing entry):\n%s", n, text)
	}
	// A snapshot entry from before fingerprints says so.
	base[1].AllocsPerOp = 1
	out.Reset()
	_ = gate(strings.NewReader(stream), &out, base, 0.20)
	if !strings.Contains(out.String(), "snapshot host: not recorded") {
		t.Errorf("gate report missing the unrecorded snapshot host:\n%s", out.String())
	}
}

// ns/op is gated only against a snapshot entry measured on the run's
// own fingerprint. Against any other host, or an entry without a
// fingerprint, a slow ns/op is reported as not compared and passes,
// while allocs/op still fails.
func TestGateComparesNsOnlyOnSameHost(t *testing.T) {
	other := func(edit func(h *Host)) *Host {
		h := testHost
		edit(&h)
		return &h
	}
	for _, tc := range []struct {
		name     string
		host     *Host
		compared bool
	}{
		{"same host", &testHost, true},
		{"other cpu", other(func(h *Host) { h.CPU = "Other CPU" }), false},
		{"other gomaxprocs", other(func(h *Host) { h.GOMAXPROCS = 2 }), false},
		{"other go", other(func(h *Host) { h.Go = "go1.22.0" }), false},
		{"unknown cpu", other(func(h *Host) { h.CPU = "" }), false},
		{"not recorded", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Both benchmarks measured 50% slower than the snapshot.
			base := []Result{
				{Name: "BenchmarkEngine_TableI", Package: "tecopt/internal/bench", NsPerOp: 1234567890 / 1.5, Host: tc.host},
				{Name: "BenchmarkEngine_HklSweep", Package: "tecopt/internal/core", NsPerOp: 98765432 / 1.5, Host: tc.host},
			}
			var out bytes.Buffer
			err := gate(strings.NewReader(hostStream), &out, base, 0.20)
			text := out.String()
			if tc.compared {
				if err == nil || strings.Count(text, "[ns/op]") != 2 {
					t.Fatalf("50%% slower on the same host passed the gate:\n%s", text)
				}
				return
			}
			if err != nil || strings.Count(text, "not compared") != 2 {
				t.Fatalf("ns/op against another host was compared: %v\n%s", err, text)
			}
			// Memory is gated whatever the host.
			base[0].AllocsPerOp = 1000
			out.Reset()
			if err := gate(strings.NewReader(hostStream), &out, base, 0.20); err == nil || !strings.Contains(out.String(), "[allocs/op]") {
				t.Fatalf("allocs/op regression on another host passed the gate:\n%s", out.String())
			}
		})
	}
}

// A -count 3 run repeats each benchmark: conversion and gate both keep
// one entry per benchmark with the median of each figure, so one slow
// repeat neither enters the snapshot nor fails the gate.
func TestRepeatsCollapseToMedians(t *testing.T) {
	stream := `{"Action":"output","Package":"p","Output":"cpu: Test CPU\n"}
{"Action":"output","Package":"p","Output":"BenchmarkA-8 \t 1\t 300 ns/op\t 10 B/op\t 9 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkA-8 \t 1\t 100 ns/op\t 30 B/op\t 5 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkA-8 \t 1\t 200 ns/op\t 20 B/op\t 7 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkB-8 \t 4\t 50 ns/op\n"}
`
	var out bytes.Buffer
	if err := run(strings.NewReader(stream), &out, nil); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d entries, want one per benchmark: %+v", len(results), results)
	}
	a := results[0]
	if a.Name != "BenchmarkA" || !num.ExactEqual(a.NsPerOp, 200) || a.BytesPerOp != 20 || a.AllocsPerOp != 7 {
		t.Errorf("BenchmarkA = %+v, want the medians 200 ns/op, 20 B/op, 7 allocs/op", a)
	}
	if b := results[1]; b.Name != "BenchmarkB" || b.Iterations != 4 || !num.ExactEqual(b.NsPerOp, 50) {
		t.Errorf("BenchmarkB = %+v, want its one run", b)
	}
	base := []Result{{Name: "BenchmarkA", Package: "p", NsPerOp: 180, BytesPerOp: 20, AllocsPerOp: 7, Host: &testHost}}
	out.Reset()
	if err := gate(strings.NewReader(stream), &out, base, 0.20); err != nil {
		t.Fatalf("median 200 ns/op within 20%% of 180 failed the gate: %v\n%s", err, out.String())
	}
	base[0].NsPerOp = 160
	out.Reset()
	if err := gate(strings.NewReader(stream), &out, base, 0.20); err == nil {
		t.Fatalf("median 200 ns/op against 160 passed the gate:\n%s", out.String())
	}
}
