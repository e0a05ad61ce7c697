// Command benchjson converts the event stream of `go test -bench -json`
// into a compact, diffable benchmark snapshot. It reads test2json
// events on stdin, extracts the benchmark result lines, and writes a
// sorted JSON array to stdout:
//
//	go test -run '^$' -bench 'BenchmarkEngine_(TableI|HklSweep_SMW)$' \
//	    -benchmem -benchtime=1x -json ./internal/bench ./internal/core \
//	    | go run ./cmd/benchjson > BENCH_solver.json
//
// Each entry carries the benchmark name (with the -N GOMAXPROCS suffix
// stripped), the package, iteration count, ns/op, — when -benchmem
// is on — B/op and allocs/op, and the fingerprint of the host it was
// measured on: the CPU model from go test's "cpu:" line, GOMAXPROCS
// from the stripped suffix, and the Go version. `make bench-json` is
// the canonical invocation; EXPERIMENTS.md tracks the committed
// snapshots.
//
// Two flags extend the converter into snapshot maintenance and CI
// gating:
//
//	-merge FILE   start from the snapshot in FILE: re-measured entries
//	              overwrite their previous values, entries the current
//	              run did not touch are kept, so one targeted bench run
//	              updates the snapshot without losing the trajectory of
//	              the others.
//	-gate FILE    compare the incoming results against the snapshot in
//	              FILE instead of emitting JSON: any benchmark above its
//	              snapshot allocs/op or B/op by more than 1% fails the
//	              gate with exit status 1, and so does one slower than
//	              its snapshot ns/op by more than -tol (default 0.20,
//	              i.e. 20%) when both were measured on the same host
//	              fingerprint; against a snapshot from another host (or
//	              one without a fingerprint) ns/op is reported as not
//	              compared. A failing line prints the host fingerprints
//	              of the snapshot entry and the run. Benchmarks missing
//	              from the snapshot are reported but do not fail.
//
// A run with -count N repeats every benchmark: both modes collapse the
// repeats of a benchmark into one entry holding the median of each
// figure (the lower middle value for an even N), so `make bench-gate`
// and `make bench-json` run -count 3.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tecopt/internal/obs"
)

// event is the subset of the test2json schema benchjson needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// Result is one benchmark measurement in the snapshot.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Host is nil on entries measured before fingerprints existed.
	Host *Host `json:"host,omitempty"`
}

// Host fingerprints the machine a result was measured on: the CPU
// model from the "cpu:" line go test prints per package, GOMAXPROCS
// from the benchmark name's -N suffix, and the Go version benchjson
// runs on. An empty field was not known.
type Host struct {
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Go         string `json:"go,omitempty"`
}

// String renders the fingerprint for the gate's report.
func (h *Host) String() string {
	if h == nil {
		return "not recorded"
	}
	unknown := func(v string) string {
		if v == "" {
			return "unknown"
		}
		return v
	}
	procs := "unknown"
	if h.GOMAXPROCS > 0 {
		procs = strconv.Itoa(h.GOMAXPROCS)
	}
	return fmt.Sprintf("cpu %s, GOMAXPROCS %s, %s", unknown(h.CPU), procs, unknown(h.Go))
}

func main() {
	mergeFile := flag.String("merge", "", "merge results into the snapshot at this path (kept entries + re-measured overwrites)")
	gateFile := flag.String("gate", "", "gate results against the snapshot at this path instead of emitting JSON")
	tol := flag.Float64("tol", 0.20, "relative ns/op regression tolerance for -gate")
	logFlags := obs.BindLogFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(logFlags.Run("benchjson", func() error {
		return runMode(os.Stdin, os.Stdout, *mergeFile, *gateFile, *tol)
	}))
}

// runMode dispatches on the flag set: plain conversion, snapshot merge,
// or regression gate.
func runMode(in io.Reader, out io.Writer, mergeFile, gateFile string, tol float64) error {
	switch {
	case mergeFile != "" && gateFile != "":
		return fmt.Errorf("-merge and -gate are mutually exclusive")
	case gateFile != "":
		base, err := readSnapshot(gateFile)
		if err != nil {
			return err
		}
		return gate(in, out, base, tol)
	case mergeFile != "":
		base, err := readSnapshot(mergeFile)
		if err != nil {
			return err
		}
		return run(in, out, base)
	default:
		return run(in, out, nil)
	}
}

// readSnapshot loads a committed BENCH_*.json array.
func readSnapshot(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return results, nil
}

// key identifies a benchmark across runs.
func key(r Result) string { return r.Package + "\x00" + r.Name }

func run(in io.Reader, out io.Writer, base []Result) error {
	results, err := parseStream(in)
	if err != nil {
		return err
	}
	results = medians(results)
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input (did the bench run fail?)")
	}
	if len(base) > 0 {
		measured := make(map[string]bool, len(results))
		for _, r := range results {
			measured[key(r)] = true
		}
		for _, b := range base {
			if !measured[key(b)] {
				results = append(results, b)
			}
		}
		sort.Slice(results, func(i, j int) bool {
			if results[i].Package != results[j].Package {
				return results[i].Package < results[j].Package
			}
			return results[i].Name < results[j].Name
		})
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// memTol is the relative allocs/op and B/op regression the gate allows.
// Allocation figures survive a change of host where ns/op does not: on
// a shared 2-CPU Xeon, BenchmarkEngine_TableI_SMW read 64-92% over its
// ns/op snapshot with no change to its work, while allocs/op stayed
// within 0.1% and B/op within 0.01% (the residue is the garbage
// collector's own allocations, which vary with the number of cycles).
const memTol = 0.01

// medians collapses the repeats of each benchmark in results, which
// parseStream sorted by key, into one entry: the repeat with the median
// ns/op, holding the median allocs/op and B/op of all repeats. An even
// count takes the lower middle value.
func medians(results []Result) []Result {
	var out []Result
	for lo := 0; lo < len(results); {
		hi := lo + 1
		for hi < len(results) && key(results[hi]) == key(results[lo]) {
			hi++
		}
		group := slices.Clone(results[lo:hi])
		mid := (len(group) - 1) / 2
		middle := func(fig func(Result) float64) Result {
			slices.SortStableFunc(group, func(a, b Result) int { return cmp.Compare(fig(a), fig(b)) })
			return group[mid]
		}
		r := middle(func(r Result) float64 { return r.NsPerOp })
		r.AllocsPerOp = middle(func(r Result) float64 { return float64(r.AllocsPerOp) }).AllocsPerOp
		r.BytesPerOp = middle(func(r Result) float64 { return float64(r.BytesPerOp) }).BytesPerOp
		out = append(out, r)
		lo = hi
	}
	return out
}

// sameHost reports whether a snapshot entry and a run were measured on
// one known fingerprint: the same CPU model, GOMAXPROCS and Go version,
// none of them unknown.
func sameHost(snap, run *Host) bool {
	return snap != nil && run != nil && snap.CPU != "" && snap.GOMAXPROCS > 0 && snap.Go != "" && *snap == *run
}

// gate compares incoming results against the snapshot and fails on any
// allocs/op or B/op regression beyond memTol, or an ns/op regression
// beyond tol relative to a snapshot entry from the same host. A memory
// figure missing on either side (a run without -benchmem) is not
// compared, and neither is ns/op against another host.
func gate(in io.Reader, out io.Writer, base []Result, tol float64) error {
	results, err := parseStream(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input (did the bench run fail?)")
	}
	results = medians(results)
	snap := make(map[string]Result, len(base))
	for _, b := range base {
		snap[key(b)] = b
	}
	var failures int
	for _, r := range results {
		b, ok := snap[key(r)]
		if !ok {
			fmt.Fprintf(out, "NEW   %-45s %14.0f ns/op (not in snapshot)\n", r.Name, r.NsPerOp)
			continue
		}
		compared := sameHost(b.Host, r.Host)
		var over []string
		if compared && r.NsPerOp > b.NsPerOp*(1+tol) {
			over = append(over, "ns/op")
		}
		if memRegressed(r.AllocsPerOp, b.AllocsPerOp) {
			over = append(over, "allocs/op")
		}
		if memRegressed(r.BytesPerOp, b.BytesPerOp) {
			over = append(over, "B/op")
		}
		status := "OK   "
		if len(over) > 0 {
			status = "FAIL "
			failures++
		}
		if compared {
			fmt.Fprintf(out, "%s %-45s %14.0f ns/op vs %14.0f snapshot (%+.1f%%)",
				status, r.Name, r.NsPerOp, b.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1))
		} else {
			fmt.Fprintf(out, "%s %-45s %14.0f ns/op not compared (snapshot host %s)",
				status, r.Name, r.NsPerOp, b.Host)
		}
		if r.AllocsPerOp > 0 && b.AllocsPerOp > 0 {
			fmt.Fprintf(out, ", %d allocs/op (%+.3f%%)", r.AllocsPerOp, relChange(r.AllocsPerOp, b.AllocsPerOp))
		}
		if r.BytesPerOp > 0 && b.BytesPerOp > 0 {
			fmt.Fprintf(out, ", %d B/op (%+.3f%%)", r.BytesPerOp, relChange(r.BytesPerOp, b.BytesPerOp))
		}
		if len(over) > 0 {
			fmt.Fprintf(out, " [%s]", strings.Join(over, ", "))
		}
		fmt.Fprintln(out)
		if len(over) > 0 {
			fmt.Fprintf(out, "      snapshot host: %s\n      run host:      %s\n", b.Host, r.Host)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed against the snapshot (ns/op beyond %.0f%% on the same host, allocs/op or B/op beyond %.0f%%)",
			failures, 100*tol, 100*memTol)
	}
	return nil
}

// memRegressed reports whether a measured allocs/op or B/op figure
// exceeds its snapshot by more than memTol; zero on either side means
// not measured.
func memRegressed(got, snap int64) bool {
	return got > 0 && snap > 0 && float64(got) > float64(snap)*(1+memTol)
}

// relChange is the percentage change of got against snap.
func relChange(got, snap int64) float64 {
	return 100 * (float64(got)/float64(snap) - 1)
}

// parseStream decodes test2json events and collects benchmark result
// lines, sorted by (package, name) so snapshots diff cleanly.
//
// test2json splits one textual benchmark result across multiple
// output events (the name flushes with a trailing tab before the
// measurements arrive), so events are reassembled into lines per
// package before parsing.
func parseStream(in io.Reader) ([]Result, error) {
	var results []Result
	partial := make(map[string]string) // package -> unterminated output
	cpus := make(map[string]string)    // package -> CPU model
	emit := func(pkg, text string) {
		text = strings.TrimSpace(text)
		if cpu, ok := strings.CutPrefix(text, "cpu:"); ok {
			cpus[pkg] = strings.TrimSpace(cpu)
			return
		}
		if r, ok := parseBenchLine(text, pkg); ok {
			results = append(results, r)
		}
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Tolerate non-JSON noise (e.g. a bare `go test` line when
			// the stream was produced without -json by mistake).
			emit("", line)
			continue
		}
		if ev.Action != "output" {
			continue
		}
		buf := partial[ev.Package] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			emit(ev.Package, buf[:nl])
			buf = buf[nl+1:]
		}
		partial[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for pkg, rest := range partial {
		emit(pkg, rest)
	}
	for k := range results {
		results[k].Host.CPU = cpus[results[k].Package]
		results[k].Host.Go = runtime.Version()
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Package != results[j].Package {
			return results[i].Package < results[j].Package
		}
		return results[i].Name < results[j].Name
	})
	return results, nil
}

// parseBenchLine parses one `BenchmarkName-N  iters  ns/op [B/op allocs/op]`
// result line. Non-benchmark output returns ok=false.
func parseBenchLine(line, pkg string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	// go test leaves the suffix off at GOMAXPROCS 1; a line from outside
	// a go test stream (no package) without one does not say.
	procs := 0
	suffix := gomaxprocsSuffix(fields[0])
	switch {
	case suffix != "":
		procs, _ = strconv.Atoi(suffix) // gomaxprocsSuffix checked it
	case pkg != "":
		procs = 1
	}
	r := Result{
		Name:       strings.TrimSuffix(fields[0], "-"+suffix),
		Package:    pkg,
		Iterations: iters,
		Host:       &Host{GOMAXPROCS: procs},
	}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			ns, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			r.NsPerOp = ns
			sawNs = true
		case "B/op":
			b, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Result{}, false
			}
			r.BytesPerOp = b
		case "allocs/op":
			a, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Result{}, false
			}
			r.AllocsPerOp = a
		}
	}
	if !sawNs {
		return Result{}, false
	}
	return r, true
}

// gomaxprocsSuffix returns the trailing "-N" procs suffix of a
// benchmark name (without the dash), or "" when absent.
func gomaxprocsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	suffix := name[i+1:]
	if _, err := strconv.Atoi(suffix); err != nil {
		return ""
	}
	return suffix
}
