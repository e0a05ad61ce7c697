package main

import (
	"context"
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"tecopt/internal/bench"
	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/power"
)

// tableIGolden is bench.FormatTableI of the eleven paper chips.
//
//go:embed testdata/tablei.golden
var tableIGolden string

// Table I's allowable temperature starts at 85 C and is relaxed by 1 C
// after each failure up to 95 C (the paper's HC06/HC09 treatment).
const (
	baseLimitC = 85.0
	maxLimitC  = 95.0
)

// relTol is the relative agreement required between an output and its
// reference computation.
const relTol = 1e-9

// agrees reports whether got agrees with want to relTol.
func agrees(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// paperChip is one Table I input.
type paperChip struct {
	name  string
	power []float64
}

// paperChips builds Table I's inputs as bench.RunTableI does: the
// Alpha-21364-like chip, then HC01..HC10.
func paperChips() ([]paperChip, error) {
	f, g := floorplan.Alpha21364Grid()
	hc, err := power.GenerateHCSuite(power.DefaultHCSpec())
	if err != nil {
		return nil, err
	}
	chips := []paperChip{{"Alpha", power.AlphaTilePowers(f, g)}}
	for _, c := range hc {
		chips = append(chips, paperChip{c.Name, c.TilePower})
	}
	for _, c := range chips {
		if err := (core.Config{TilePower: c.power}).Validate(); err != nil {
			return nil, fmt.Errorf("chip %s: %w", c.name, err)
		}
	}
	return chips, nil
}

// allSites is the full-cover deployment: a TEC on each of the 144 tiles.
func allSites() []int {
	sites := make([]int, 144)
	for i := range sites {
		sites[i] = i
	}
	return sites
}

// runTableI is the paper's headline evaluation: every Table I row
// (greedy deployment with relaxation, then full cover) through
// bench.RunTableIRow, serially, in paper order. An operation is one chip.
// The inputs are the paper's, so the seed is not used.
func runTableI(e *env) error {
	var chips []paperChip
	if err := e.setup(15, func() (err error) {
		chips, err = paperChips()
		return err
	}); err != nil {
		return err
	}
	if e.opt.toy {
		chips = chips[:1]
	}
	alpha := core.Config{TilePower: chips[0].power}
	if err := alpha.Validate(); err != nil {
		return err
	}
	if err := e.overhead(func() error {
		_, err := core.GreedyDeploy(alpha, material.CelsiusToKelvin(baseLimitC), core.CurrentOptions{})
		return err
	}); err != nil {
		return err
	}

	ctx := context.Background()
	var passes [][]*bench.TableIRow
	if err := e.measurePasses(func() error {
		rows := make([]*bench.TableIRow, len(chips))
		for i, c := range chips {
			d, err := e.timed(ctx, "benchmark.tablei.chip", func(ctx context.Context) (err error) {
				rows[i], err = bench.RunTableIRow(c.name, c.power, bench.TableIOptions{Ctx: ctx})
				return err
			})
			e.op(d, err)
		}
		passes = append(passes, rows)
		return nil
	}); err != nil {
		return err
	}
	for _, rows := range passes {
		e.checkTableI(rows)
	}
	if e.reg == nil {
		return nil
	}

	e.setCounters()
	for _, rows := range passes {
		for _, r := range rows {
			if r != nil {
				e.layer["core.systems.r288"]++
				e.layer["core.greedy.iterations"] += float64(r.Iterations)
				e.layer["core.greedy.retries"] += r.LimitC - baseLimitC
			}
		}
	}
	// Three greedy deployments and one full cover stand for the
	// eleven of each a pass builds.
	var sample []build
	for i, r := range passes[0] {
		if r != nil && len(r.Sites) > 0 && len(sample) < e.reps(3) {
			sample = append(sample, build{core.Config{TilePower: chips[i].power}, r.Sites})
		}
	}
	if !e.opt.toy {
		sample = append(sample, build{alpha, allSites()})
	}
	if err := e.replay(sample); err != nil {
		return err
	}
	e.opShares()
	return nil
}

// checkTableI compares each row's line of bench.FormatTableI with the
// golden line of the same chip, and, when every row matches and all
// eleven chips ran, the whole formatted table with the golden.
func (e *env) checkTableI(rows []*bench.TableIRow) {
	want := map[string]string{}
	for _, line := range strings.Split(e.golden, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			want[f[0]] = line
		}
	}
	complete := len(rows) == 11
	for _, r := range rows {
		if r == nil {
			complete = false
			continue
		}
		got := strings.Split(bench.FormatTableI([]*bench.TableIRow{r}), "\n")[2]
		if got != want[r.Name] {
			e.fail("Table I row %s: got %q, want %q", r.Name, got, want[r.Name])
			complete = false
		}
	}
	if complete && bench.FormatTableI(rows) != e.golden {
		e.fail("Table I differs from testdata/tablei.golden outside the chip rows")
	}
}

// greedyChips generates the greedy workload's chips: the hypothetical
// chips hc:1000 to hc:<1000+n-1>, loaded as the service and CLIs load
// them, with every tile power scaled by a seeded factor in [0.98, 1.02),
// as a designer re-runs configuration when power estimates move. Drawing
// fresh chips per seed instead changes how many chips need a relaxed
// limit, which moved the per-seed results more than any bound allows.
func greedyChips(seed int64, n int) ([]core.Config, error) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]core.Config, n)
	for j := range cfgs {
		c, err := chipload.Load(chipload.Spec{Name: fmt.Sprintf("hc:%d", 1000+j)})
		if err != nil {
			return nil, err
		}
		for t := range c.TilePower {
			c.TilePower[t] *= 0.98 + 0.04*rng.Float64()
		}
		cfg := core.Config{Geom: c.Geom, Cols: c.Grid.Cols, Rows: c.Grid.Rows, TilePower: c.TilePower}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("chip %s: %w", c.Name, err)
		}
		cfgs[j] = cfg
	}
	return cfgs, nil
}

// greedyChipCount is the number of chips of one greedy pass: a pass of
// about 2 s, so that a run makes about ten and each call gets a best of
// as many tries.
const greedyChipCount = 20

// deployment is the outcome of the relaxed greedy flow on one chip.
type deployment struct {
	res    *core.DeployResult
	limitC float64
}

// runGreedy is the per-design configuration flow: core.GreedyDeploy with
// Table I's relaxation on seeded chips, without the full-cover baseline.
// An operation is one GreedyDeploy call (one limit).
func runGreedy(e *env) error {
	n := greedyChipCount
	if e.opt.toy {
		n = 1
	}
	var cfgs []core.Config
	if err := e.setup(15, func() (err error) {
		cfgs, err = greedyChips(e.opt.seed, n)
		return err
	}); err != nil {
		return err
	}
	if err := e.overhead(func() error {
		_, err := core.GreedyDeploy(cfgs[0], material.CelsiusToKelvin(baseLimitC), core.CurrentOptions{})
		return err
	}); err != nil {
		return err
	}

	ctx := context.Background()
	var first []deployment
	var iterations, retries int
	if err := e.measurePasses(func() error {
		pass := len(e.passMS) - 1
		for _, cfg := range cfgs {
			var dep deployment
			for limitC := baseLimitC; limitC <= maxLimitC; limitC++ {
				var res *core.DeployResult
				d, err := e.timed(ctx, "benchmark.greedy.deploy", func(ctx context.Context) (err error) {
					res, err = core.GreedyDeploy(cfg, material.CelsiusToKelvin(limitC), core.CurrentOptions{Ctx: ctx})
					return err
				})
				e.op(d, err)
				if err != nil {
					dep = deployment{}
					break
				}
				dep = deployment{res, limitC}
				iterations += len(res.Iterations)
				if res.Success {
					break
				}
				retries++
			}
			if pass == 0 {
				first = append(first, dep)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for j, dep := range first {
		e.checkDeployment(j, cfgs[j], dep)
	}
	if e.reg == nil {
		return nil
	}

	e.setCounters()
	e.layer["core.greedy.iterations"] = float64(iterations)
	e.layer["core.greedy.retries"] = float64(retries)
	var sample []build
	for j, dep := range first {
		if dep.res != nil && len(dep.res.Sites) > 0 && len(sample) < e.reps(6) {
			sample = append(sample, build{cfgs[j], dep.res.Sites})
		}
	}
	if err := e.replay(sample); err != nil {
		return err
	}
	e.opShares()
	return nil
}

// checkDeployment requires every chip to meet a limit of at most 95 C,
// and on every fourth chip re-solves the final deployment at its optimal
// current with the direct-factorization oracle: the peak must match the
// reported one and meet the limit.
func (e *env) checkDeployment(j int, cfg core.Config, dep deployment) {
	if dep.res == nil {
		return // the failed call is already counted
	}
	if !dep.res.Success {
		e.fail("chip %d: no deployment meets %g C", j, maxLimitC)
		return
	}
	if j%4 != 0 {
		return
	}
	direct := cfg
	direct.Solve = core.SolveDirect
	sys, err := core.NewSystem(direct, dep.res.Sites)
	if err != nil {
		e.fail("chip %d: oracle system: %v", j, err)
		return
	}
	peakK, _, _, err := sys.PeakAt(dep.res.Current.IOpt)
	switch {
	case err != nil:
		e.fail("chip %d: oracle solve: %v", j, err)
	case !agrees(peakK, dep.res.Current.PeakK):
		e.fail("chip %d: peak %.12g K, oracle %.12g K", j, dep.res.Current.PeakK, peakK)
	case peakK > material.CelsiusToKelvin(dep.limitC)*(1+relTol):
		e.fail("chip %d: oracle peak %.12g K exceeds the %g C limit", j, peakK, dep.limitC)
	}
}

// sweepSystem is one deployment of the sweep workload, set up before
// the measured phase.
type sweepSystem struct {
	cfg     core.Config
	sys     *core.System
	lambdaA float64 // runaway limit
}

// sweepSystems sets up the sweep workload's systems: the greedy
// deployments of Alpha (rank 14) and HC07 (rank 36) at 85 C and Alpha's
// full cover (rank 288), each with its solver state built.
func sweepSystems(toy bool) ([]*sweepSystem, error) {
	chips, err := paperChips()
	if err != nil {
		return nil, err
	}
	alpha := core.Config{TilePower: chips[0].power}
	hc07 := core.Config{TilePower: chips[7].power}
	if err := alpha.Validate(); err != nil {
		return nil, err
	}
	if err := hc07.Validate(); err != nil {
		return nil, err
	}
	var out []*sweepSystem
	add := func(cfg core.Config, sys *core.System) error {
		lambdaA, err := sys.RunawayLimit(core.RunawayOptions{})
		if err != nil {
			return err
		}
		if math.IsInf(lambdaA, 1) {
			return fmt.Errorf("deployment %v has no runaway limit", sys.Sites())
		}
		out = append(out, &sweepSystem{cfg, sys, lambdaA})
		return nil
	}
	greedy := func(cfg core.Config) error {
		res, err := core.GreedyDeploy(cfg, material.CelsiusToKelvin(baseLimitC), core.CurrentOptions{})
		if err != nil {
			return err
		}
		if !res.Success {
			return fmt.Errorf("greedy deployment misses %g C", baseLimitC)
		}
		return add(cfg, res.System)
	}
	if err := greedy(alpha); err != nil || toy {
		return out, err
	}
	if err := greedy(hc07); err != nil {
		return nil, err
	}
	full, err := core.NewSystem(alpha, allSites())
	if err != nil {
		return nil, err
	}
	return out, add(alpha, full)
}

// sweepRun is one recorded h_kl sweep.
type sweepRun struct {
	s        *sweepSystem
	k, l     int // network nodes of the two silicon tiles
	currents []float64
	h        []float64
}

// runSweep times only per-current work on systems set up beforehand:
// per system, an h_kl sweep at i = 0.999*lambda_m*j/points over a seeded
// tile pair, then warm OptimizeCurrent calls with each method. An
// operation is one h_kl point or one optimization.
func runSweep(e *env) error {
	// 1000 points per system make a pass of about 2 s, so that a run
	// makes about ten and each point gets a best of as many tries.
	points := 1000
	if e.opt.toy {
		points = 50
	}
	methods := []core.CurrentMethod{
		core.CurrentGolden, core.CurrentGolden, core.CurrentGolden, core.CurrentGolden,
		core.CurrentBrent, core.CurrentBrent, core.CurrentBrent,
		core.CurrentGradient, core.CurrentGradient, core.CurrentGradient,
	}
	if e.opt.toy {
		methods = methods[:1]
	}
	var systems []*sweepSystem
	if err := e.setup(3, func() (err error) {
		systems, err = sweepSystems(e.opt.toy)
		return err
	}); err != nil {
		return err
	}
	// Each system's tile pair is drawn once, so every pass repeats the
	// same points.
	rng := rand.New(rand.NewSource(e.opt.seed))
	pairs := make([][2]int, len(systems))
	for j, s := range systems {
		sil := s.sys.PN.SilNode
		pairs[j] = [2]int{sil[rng.Intn(len(sil))], sil[rng.Intn(len(sil))]}
	}
	if err := e.overhead(func() error {
		s := systems[0]
		for j := 0; j < 200; j++ {
			if _, err := s.sys.Hkl(0.999*s.lambdaA*float64(j)/200, 0, 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	ctx := context.Background()
	var runs []*sweepRun
	if err := e.measurePasses(func() error {
		for j, s := range systems {
			run := &sweepRun{
				s: s, k: pairs[j][0], l: pairs[j][1],
				currents: make([]float64, points), h: make([]float64, points),
			}
			for p := range run.h {
				iA := 0.999 * s.lambdaA * float64(p) / float64(points)
				d, err := e.timed(ctx, "benchmark.sweep.hkl", func(ctx context.Context) (err error) {
					run.h[p], err = s.sys.HklCtx(ctx, iA, run.k, run.l)
					return err
				})
				e.op(d, err)
				run.currents[p] = iA
			}
			runs = append(runs, run)
			for _, m := range methods {
				d, err := e.timed(ctx, "benchmark.sweep.optimize_current", func(ctx context.Context) error {
					_, err := s.sys.OptimizeCurrent(core.CurrentOptions{Method: m, Ctx: ctx})
					return err
				})
				e.op(d, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.checkSweeps(runs, len(systems))
	if e.reg == nil {
		return nil
	}

	e.setCounters()
	var sample []build
	for _, s := range systems {
		sample = append(sample, build{s.cfg, s.sys.Sites()})
	}
	if err := e.replay(sample); err != nil {
		return err
	}
	e.opShares()
	return nil
}

// checkSweeps checks the paper's results on every sweep: h_kl is
// nonnegative (Lemma 3), convex in i (Theorem 3) and grows toward the
// runaway limit (Theorem 2). On the first sweep of each system it also
// compares 16 seeded points with the direct-factorization oracle.
func (e *env) checkSweeps(runs []*sweepRun, systems int) {
	for _, run := range runs {
		if err := sweepShape(run.h); err != nil {
			e.fail("h_kl(%d,%d) sweep: %v", run.k, run.l, err)
		}
	}
	rng := rand.New(rand.NewSource(e.opt.seed + 1))
	for _, run := range runs[:min(systems, len(runs))] {
		direct := run.s.cfg
		direct.Solve = core.SolveDirect
		oracle, err := core.NewSystem(direct, run.s.sys.Sites())
		if err != nil {
			e.fail("oracle system: %v", err)
			continue
		}
		for n := 0; n < 16; n++ {
			j := rng.Intn(len(run.h))
			want, err := oracle.Hkl(run.currents[j], run.k, run.l)
			switch {
			case err != nil:
				e.fail("oracle h_kl at %.6g A: %v", run.currents[j], err)
			case !agrees(run.h[j], want):
				e.fail("h_kl(%d,%d) at %.6g A: %.12g, oracle %.12g", run.k, run.l, run.currents[j], run.h[j], want)
			}
		}
	}
}

// sweepShape checks h_kl sampled at evenly spaced currents from 0 to
// just below lambda_m: nonnegative, convex up to rounding, and larger
// at the last current than at the first.
func sweepShape(h []float64) error {
	for j, v := range h {
		if v < 0 {
			return fmt.Errorf("point %d is negative: %.12g", j, v)
		}
		if j == 0 || j == len(h)-1 {
			continue
		}
		scale := math.Max(h[j-1], math.Max(v, h[j+1]))
		if d2 := h[j-1] - 2*v + h[j+1]; d2 < -relTol*scale {
			return fmt.Errorf("not convex at point %d: second difference %.3g", j, d2)
		}
	}
	if n := len(h); n > 1 && h[n-1] <= h[0] {
		return fmt.Errorf("no growth toward the runaway limit: %.12g at the last point, %.12g at i = 0", h[n-1], h[0])
	}
	return nil
}
