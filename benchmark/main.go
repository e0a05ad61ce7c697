// Command benchmark is the repository benchmark. It runs one named
// workload against the solver and service packages through their public
// functions, checks the outputs against references after the measured
// phase, and prints the metrics BENCHMARK.json declares: one JSON line
// per metric, then a summary object as the last line of standard output.
//
//	go run . -workload tablei -seed 1 -seconds 25 -trace 0
//	go run . -workload all -trace 1
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// reports the per-layer metrics instead: the measured phase runs with the
// obs flight recorder and the program's counters on, setup is replayed
// layer by layer, and the recording is written for cmd/tectrace.
// Each workload of an "all" run executes in a fresh process of its own,
// so process-global solver caches, the heap and the GC state of one
// workload never reach another. README.md describes the workloads and
// metrics. The exit status is 0 when every check passed, 1 when an
// output was wrong or an operation failed, 2 on a usage or setup error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tecopt/internal/obs"
)

// options are the settings of one run. The first four come from the
// command line; tests set the others.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceDir holds the flight recording of a traced run (default
	// .bench_build).
	traceDir string
	// toy shrinks every input to smoke-test size.
	toy bool
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(e *env) error
}

// workloads lists the benchmark's workloads in the order "all" runs them.
// The names are cited by later changes; do not rename them.
var workloads = []workload{
	{"tablei", runTableI},
	{"greedy", runGreedy},
	{"sweep", runSweep},
	{"serve_warm", runServeWarm},
}

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every untraced run. Each workload defines
// its own operation (a Table I chip, a greedy deployment, an h_kl point
// or optimization, an HTTP request); README.md lists them. Medians,
// tails and CPU time per operation are per-layer metrics: on a shared
// two-CPU host whose speed drifts for tens of seconds at a time they do
// not repeat within any bound BENCHMARK.json may set.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
}

// layerMetrics are reported by every traced run. A layer the workload
// does not reach reports 0.
var layerMetrics = []metricDef{
	// Setup replay: unit costs of building one system.
	{"core.systems", "count"},
	{"core.systems.r288", "count"},
	{"core.new_system_ms", "ms"},
	{"sparse.rcm_ms", "ms"},
	{"thermal.factor_ms", "ms"},
	{"sparse.smw_wsolve_ms", "ms"},
	{"sparse.smw_wsolves", "count"},
	{"sparse.smw_dense_ms.r288", "ms"},
	{"sparse.smw_dense_ms.low", "ms"},
	{"eigen.symeig_ms.m288", "ms"},
	{"mat.cholesky_ms.m288", "ms"},
	// Per-current kernels.
	{"thermal.band_solve_us_p50", "us"},
	{"sparse.smw_correct_us_p50.low", "us"},
	{"sparse.smw_correct_us_p50.r288", "us"},
	{"core.optimize_current_ms", "ms"},
	// Program counters over the measured phase.
	{"core.optimize_current.evals", "count"},
	{"core.runaway.probes", "count"},
	{"core.greedy.iterations", "count"},
	{"core.greedy.retries", "count"},
	{"thermal.reusable.smw_hits", "count"},
	{"thermal.reusable.near_limit", "count"},
	{"thermal.reusable.fallbacks", "count"},
	{"engine.solver_cache.misses", "count"},
	{"engine.solver_cache.evictions", "count"},
	// Where one operation's time goes, from the program's histograms.
	{"op.p50_ms", "ms"},
	{"op.p90_ms", "ms"},
	{"op.mean_ms", "ms"},
	{"op.cpu_ms", "ms"},
	{"op.new_system_ms", "ms"},
	{"op.band_factor_ms", "ms"},
	{"op.smw_wsolve_ms", "ms"},
	{"op.smw_dense_ms", "ms"},
	{"op.band_solve_ms", "ms"},
	{"op.smw_correct_ms", "ms"},
	{"op.handler_ms", "ms"},
	{"op.other_ms", "ms"},
	// Service layers.
	{"serve.handler_us_p50", "us"},
	{"core.peak_at_us_p50", "us"},
	{"chipload.load_us_p50", "us"},
	{"http.loopback_us_p50", "us"},
	{"r250.p50_ms", "ms"},
	{"r250.p99_ms", "ms"},
	{"r500.p50_ms", "ms"},
	{"r500.p99_ms", "ms"},
	// Load generator health, and queueing behind its nproc connections.
	{"loadgen.late_us_p50", "us"},
	{"loadgen.late_us_p99", "us"},
	{"loadgen.conn_wait_us_p50", "us"},
	{"loadgen.conn_wait_us_p99", "us"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.invalid_steps", "count"},
	// Process and tracing.
	{"go.gc_cycles", "count"},
	{"proc.maxrss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// isLayerMetric reports whether name is a declared per-layer metric.
func isLayerMetric(name string) bool {
	for _, d := range layerMetrics {
		if d.name == name {
			return true
		}
	}
	return false
}

func main() {
	if os.Getenv(loadgenEnv) != "" {
		os.Exit(loadgenMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs them, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "all", "workload to run: "+workloadNames()+" or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&opt.seconds, "seconds", 25, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (trace != 0 && trace != 1) || !(opt.seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: want -trace 0 or 1, -seconds > 0 and no positional arguments")
		return 2
	}
	opt.trace = trace == 1
	return runOpts(opt, stdout, stderr)
}

// runOpts runs the selected workload (or every workload, each in a child
// process) and returns the exit status.
func runOpts(opt options, stdout, stderr io.Writer) int {
	if opt.workload == "all" {
		return runAll(opt, stdout, stderr)
	}
	w, ok := findWorkload(opt.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", opt.workload, workloadNames())
		return 2
	}
	e := newEnv(opt, tableIGolden)
	if err := e.execute(w); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 2
	}
	for _, p := range e.problems {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, p)
	}
	sum, err := e.emit(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 2
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricLine is one per-metric output line.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Kind     string  `json:"kind"`
}

// emit prints the host fingerprint, one line per metric and the summary.
func (e *env) emit(w io.Writer) (summary, error) {
	defs, kind, values := e2eMetrics, "e2e", e.endToEnd()
	if e.opt.trace {
		defs, kind, values = layerMetrics, "layer", e.layer
	}
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
	}
	for name := range values {
		if !declared[name] {
			return summary{}, fmt.Errorf("metric %q is not declared", name)
		}
	}
	sum := summary{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": e.opt.workload, "host": hostFingerprint()}); err != nil {
		return summary{}, err
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return summary{}, fmt.Errorf("metric %s is not finite", d.name)
		}
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if err := enc.Encode(metricLine{e.opt.workload, d.name, v, d.unit, kind}); err != nil {
			return summary{}, err
		}
	}
	return sum, enc.Encode(sum)
}

// runAll runs every workload in a child process of its own with opt's
// seed, seconds and trace, passes their metric lines through and ends
// with a summary whose metrics are keyed "<workload>/<metric>".
func runAll(opt options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	status := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s printed no summary (%v)\n", w.name, runErr)
			return 2
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var exitErr *exec.ExitError
		switch {
		case errors.As(runErr, &exitErr):
			status = max(status, exitErr.ExitCode())
		case runErr != nil:
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, runErr)
			return 2
		}
		total.Correct = total.Correct && sum.Correct
		total.Attempted += sum.Attempted
		total.Failed += sum.Failed
		for name, v := range sum.Metrics {
			total.Metrics[w.name+"/"+name] = v
		}
	}
	if err := json.NewEncoder(stdout).Encode(total); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return status
}

// writeTrace writes the flight recording of a traced run to
// trace-<workload>.jsonl in the trace directory.
func (e *env) writeTrace() error {
	dir := e.opt.traceDir
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+e.opt.workload+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := e.reg.WriteTrace(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newRegistry builds the registry of a traced run: wall clock, flight
// recorder on.
func newRegistry() *obs.Registry {
	r := obs.New(nil)
	r.EnableTraceOpts(obs.TraceOptions{Flight: true})
	return r
}

// budget is the length of the measured phase.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}
