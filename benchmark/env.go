package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/obs"
)

// env is one workload run: its options, what it measured, and in a
// traced run the flight-recorder registry and the per-layer values.
type env struct {
	opt options
	// golden is the Table I reference (tests substitute a corrupted one).
	golden string
	// reg is the registry of a traced run, nil otherwise.
	reg *obs.Registry

	setupS []float64 // seconds per setup repetition
	latMS  []float64 // latency of every successful operation
	// passMS holds, per pass, each operation's latency in order (NaN
	// when it failed). Every pass repeats the same operations.
	passMS            [][]float64
	attempted, failed int
	problems          []string
	start             time.Time // start of the measured phase
	cpu               time.Duration
	alloc             uint64
	gcs               uint32
	// snap holds the program's metrics at the end of the measured phase
	// of a traced run.
	snap  *obs.Snapshot
	layer map[string]float64
}

// maxProblems bounds the failure messages kept for standard error.
const maxProblems = 20

func newEnv(opt options, golden string) *env {
	e := &env{opt: opt, golden: golden, layer: map[string]float64{}}
	if opt.trace {
		e.reg = newRegistry()
	}
	return e
}

// execute runs w and, in a traced run, adds the process metrics and
// writes the flight recording.
func (e *env) execute(w workload) error {
	if err := w.run(e); err != nil {
		return err
	}
	if e.reg == nil {
		return nil
	}
	e.layer["go.gc_cycles"] = float64(e.gcs)
	e.layer["proc.maxrss_mb"] = maxRSSMB()
	e.layer["op.p50_ms"] = quantile(e.latMS, 0.50)
	e.layer["op.p90_ms"] = quantile(e.latMS, 0.90)
	e.layer["op.cpu_ms"] = ms(e.cpu) / float64(max(e.attempted, 1))
	return e.writeTrace()
}

// reps is n, or 1 at toy size: how often setup repeats, and how many
// items a traced run replays.
func (e *env) reps(n int) int {
	if e.opt.toy {
		return 1
	}
	return n
}

// setup runs build reps times, recording each duration; setup_s is
// their median. The state the last repetition built is what gets
// measured.
func (e *env) setup(reps int, build func() error) error {
	for k := 0; k < e.reps(reps); k++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		e.setupS = append(e.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// measure runs body as the measured phase, recording process CPU time,
// bytes allocated and GC cycles across it. In a traced run the
// program's instrumentation is on for body only, and its metrics are
// snapshotted when body returns.
func (e *env) measure(body func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cache0 := core.SolverCacheStats()
	if e.reg != nil {
		obs.SetGlobal(e.reg)
	}
	cpu0 := cpuTime()
	e.start = time.Now()
	err := body()
	e.cpu = cpuTime() - cpu0
	if e.reg != nil {
		e.snap = e.reg.Snapshot()
		obs.SetGlobal(nil)
		cache1 := core.SolverCacheStats()
		e.layer["engine.solver_cache.misses"] = float64(cache1.Misses - cache0.Misses)
		e.layer["engine.solver_cache.evictions"] = float64(cache1.Evictions - cache0.Evictions)
	}
	runtime.ReadMemStats(&m1)
	e.alloc = m1.TotalAlloc - m0.TotalAlloc
	e.gcs = m1.NumGC - m0.NumGC
	return err
}

// minPasses is the fewest passes a measured phase runs (one at toy
// size): op_ms takes each operation's best of at least two.
const minPasses = 2

// measurePasses runs pass as the measured phase, over and over: a pass
// starts while another as long as the last still fits in the phase, and
// the first minPasses always run. Every pass does the same operations
// on the same inputs, so every run measures the same mix.
func (e *env) measurePasses(pass func() error) error {
	return e.measure(func() error {
		for n := 1; ; n++ {
			t0 := time.Now()
			e.beginPass()
			if err := pass(); err != nil {
				return err
			}
			if n >= e.reps(minPasses) && time.Since(e.start)+time.Since(t0) > e.opt.budget() {
				return nil
			}
		}
	})
}

// beginPass starts recording the operations of a new pass.
func (e *env) beginPass() { e.passMS = append(e.passMS, nil) }

// op records one operation of the current pass.
func (e *env) op(d time.Duration, err error) {
	e.attempted++
	last := len(e.passMS) - 1
	if err != nil {
		e.passMS[last] = append(e.passMS[last], math.NaN())
		e.fail("operation failed: %v", err)
		return
	}
	e.latMS = append(e.latMS, ms(d))
	e.passMS[last] = append(e.passMS[last], ms(d))
}

// fail counts one failed operation or wrong output.
func (e *env) fail(format string, args ...any) {
	e.failed++
	switch {
	case len(e.problems) < maxProblems:
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	case len(e.problems) == maxProblems:
		e.problems = append(e.problems, "further failures omitted")
	}
}

// endToEnd computes the end-to-end metrics of the run.
func (e *env) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         median(e.setupS),
		"op_ms":           e.bestOpMS(),
		"alloc_kb_per_op": float64(e.alloc) / 1024 / float64(max(e.attempted, 1)),
	}
}

// bestOpMS is the mean, over the operations of a pass, of each
// operation's fastest time across the run's passes. On a shared host
// whose speed drifts, an operation's best of several tries moves far
// less from run to run than a median or mean over one try of each.
// Operations that failed in every pass are left out.
func (e *env) bestOpMS() float64 {
	var sum float64
	n := 0
	for i := 0; ; i++ {
		best, seen := math.Inf(1), false
		for _, p := range e.passMS {
			if i < len(p) {
				seen = true
				if !math.IsNaN(p[i]) {
					best = math.Min(best, p[i])
				}
			}
		}
		if !seen {
			break
		}
		if !math.IsInf(best, 1) {
			sum += best
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// timed runs f and returns its wall time. In a traced run f runs inside
// a span of the benchmark's own, named for the layer it calls into.
func (e *env) timed(ctx context.Context, name string, f func(ctx context.Context) error) (time.Duration, error) {
	sctx, sp := ctx, obs.Span{}
	if e.reg != nil {
		sctx, sp = e.reg.StartSpanCtx(ctx, name)
	}
	t0 := time.Now()
	err := f(sctx)
	d := time.Since(t0)
	sp.End()
	return d, err
}

// overhead estimates what the flight recorder costs on probe: it
// alternates untraced and traced executions, twice each (once at toy
// size) with a fresh registry, and compares the faster of each.
func (e *env) overhead(probe func() error) error {
	if e.reg == nil {
		return nil
	}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for round := 0; round < e.reps(2); round++ {
		for traced := range best {
			if traced == 1 {
				obs.SetGlobal(newRegistry())
			}
			t0 := time.Now()
			err := probe()
			d := time.Since(t0)
			obs.SetGlobal(nil)
			if err != nil {
				return fmt.Errorf("trace overhead probe: %w", err)
			}
			best[traced] = min(best[traced], d)
		}
	}
	e.layer["trace.overhead_pct"] = 100 * (float64(best[1])/float64(best[0]) - 1)
	return nil
}

// counter returns a program counter at the end of the measured phase.
func (e *env) counter(name string) float64 {
	return float64(e.snap.Counters[name])
}

// histSumMS returns the summed observations of a nanosecond histogram
// at the end of the measured phase, in milliseconds.
func (e *env) histSumMS(name string) float64 {
	return float64(e.snap.Histograms[name].Sum) / 1e6
}

// setCounters copies the program counters every solver workload shares.
func (e *env) setCounters() {
	for _, name := range []string{
		"thermal.reusable.smw_hits",
		"thermal.reusable.near_limit",
		"thermal.reusable.fallbacks",
	} {
		e.layer[name] = e.counter(name)
	}
	e.layer["core.systems"] = e.counter("thermal.reusable.setups")
	if runs := e.counter("core.optimize_current.runs"); runs > 0 {
		e.layer["core.optimize_current.evals"] = e.counter("core.optimize_current.evaluations") / runs
	}
	if searches := e.counter("core.runaway.searches"); searches > 0 {
		e.layer["core.runaway.probes"] = e.counter("core.runaway.probes") / searches
	}
	e.layer["sparse.smw_wsolves"] = e.wsolves()
}

// wsolves is the number of base solves SMW setups made in the measured
// phase: every band solve that was not the one base solve of a
// per-current solve.
func (e *env) wsolves() float64 {
	perCurrent := e.counter("thermal.reusable.smw_hits") + e.counter("thermal.reusable.near_limit")
	return math.Max(0, e.counter("sparse.band.solves")-perCurrent)
}

// opShares splits the mean operation time of a traced measured phase
// across layers, from the program's own histograms. SMW setup time is
// split into base solves and dense work by the mean band-solve time;
// assembly is the system count times the replayed NewSystem cost. For
// serve_warm the solver shares lie inside the handler time, and
// op.other_ms is what lies outside it: HTTP, client and queueing.
func (e *env) opShares() {
	n := float64(max(e.attempted, 1))
	solves := e.snap.Histograms["sparse.band.solve_ns"]
	meanSolveMS := 0.0
	if solves.Count > 0 {
		meanSolveMS = float64(solves.Sum) / float64(solves.Count) / 1e6
	}
	perCurrent := e.counter("thermal.reusable.smw_hits") + e.counter("thermal.reusable.near_limit")
	wsolveMS := e.wsolves() * meanSolveMS
	shares := map[string]float64{
		"op.new_system_ms":  e.layer["core.systems"] * e.layer["core.new_system_ms"],
		"op.band_factor_ms": e.histSumMS("sparse.band.factor_ns"),
		"op.smw_wsolve_ms":  wsolveMS,
		"op.smw_dense_ms":   math.Max(0, e.histSumMS("sparse.smw.setup_ns")-wsolveMS),
		"op.band_solve_ms":  perCurrent * meanSolveMS,
		"op.smw_correct_ms": e.histSumMS("sparse.smw.correct_ns"),
	}
	inner := 0.0
	for _, name := range sortedKeys(shares) {
		shares[name] /= n
		e.layer[name] = shares[name]
		inner += shares[name]
	}
	handler := 0.0
	for _, name := range sortedKeys(e.snap.Histograms) {
		if strings.HasPrefix(name, "tecserve.") && strings.HasSuffix(name, ".latency_ns") {
			handler += e.histSumMS(name)
		}
	}
	handler /= n
	outer := inner
	if handler > 0 {
		outer = handler
	}
	mean := meanOf(e.latMS)
	e.layer["op.mean_ms"] = mean
	e.layer["op.handler_ms"] = handler
	e.layer["op.other_ms"] = mean - outer
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- process ---

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the peak resident set of the process in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFingerprint names the machine a result came from.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
