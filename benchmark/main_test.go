package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the load generator process the
// serve workload starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(loadgenEnv) != "" {
		os.Exit(loadgenMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// declaration is the part of BENCHMARK.json the benchmark must match.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// toyOptions are the options of a smoke-test-size run.
func toyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: 3, seconds: 0.3, trace: trace, traceDir: t.TempDir(), toy: true}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size, once
// untraced and once traced, and requires each run to pass its checks and
// the emitted (workload, metric, unit) triples to be exactly those
// BENCHMARK.json declares.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclaration(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declaredNames []string
	for _, w := range d.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declaredNames, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declaredNames)
	}

	want := map[string]bool{}
	for _, w := range names {
		for _, m := range d.EndToEnd {
			want[w+" "+m.Name+" "+m.Unit+" e2e"] = true
		}
		for _, m := range d.PerLayer {
			want[w+" "+m.Name+" "+m.Unit+" layer"] = true
		}
	}
	got := map[string]bool{}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			var out, stderr bytes.Buffer
			if code := runOpts(toyOptions(t, w, trace), &out, &stderr); code != 0 {
				t.Fatalf("%s trace %v: exit %d\n%s", w, trace, code, stderr.String())
			}
			lines, sum := parseOutput(t, out.Bytes())
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace %v: summary %+v", w, trace, sum)
			}
			for _, l := range lines {
				got[l.Workload+" "+l.Metric+" "+l.Unit+" "+l.Kind] = true
				if sum.Metrics[l.Metric] != (metricValue{l.Value, l.Unit}) {
					t.Errorf("%s: summary has %v for %s, line has %v", w, sum.Metrics[l.Metric], l.Metric, l.Value)
				}
			}
		}
	}
	if missing, extra := diff(want, got), diff(got, want); len(missing)+len(extra) > 0 {
		t.Errorf("declared but not emitted: %v\nemitted but not declared: %v", missing, extra)
	}
}

// TestCorruptedGoldenFailsTableI requires a Table I run against a
// corrupted golden to count its chip as failed and to exit non-zero.
func TestCorruptedGoldenFailsTableI(t *testing.T) {
	corrupted := strings.Replace(tableIGolden, "Alpha        91.8", "Alpha        91.9", 1)
	if corrupted == tableIGolden {
		t.Fatal("golden has no Alpha row to corrupt")
	}
	e := newEnv(toyOptions(t, "tablei", false), corrupted)
	w, _ := findWorkload("tablei")
	if err := e.execute(w); err != nil {
		t.Fatal(err)
	}
	sum, err := e.emit(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Correct || sum.Attempted == 0 || sum.Failed != sum.Attempted {
		t.Fatalf("summary %+v, want every attempted operation failed", sum)
	}
}

// TestUsageErrors requires bad flags to exit 2 without a summary.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tablei", "--trace", "2"},
		{"--workload", "tablei", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// parseOutput splits a run's standard output into its metric lines and
// the closing summary.
func parseOutput(t *testing.T, out []byte) ([]metricLine, summary) {
	t.Helper()
	var lines []metricLine
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		var l metricLine
		if err := json.Unmarshal(sc.Bytes(), &l); err == nil && l.Metric != "" {
			lines = append(lines, l)
		}
	}
	var sum summary
	if err := json.Unmarshal(last, &sum); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return lines, sum
}

// diff returns the keys of a missing from b, sorted.
func diff(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
