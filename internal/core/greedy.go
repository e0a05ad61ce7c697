package core

import (
	"context"
	"math"
	"sort"
	"strconv"
	"strings"

	"tecopt/internal/obs"
)

// GreedyDeploy (Figure 5): iteratively cover every over-limit tile with a
// TEC device, re-optimize the shared supply current, and repeat until
// either no tile exceeds the limit (success) or all over-limit tiles are
// already covered (failure — the TECs cannot cool the chip to the limit,
// as happens for benchmarks HC06 and HC09 at 85 C).

// DeployIteration records one pass of the greedy loop for analysis.
type DeployIteration struct {
	// Added lists the tiles newly covered this iteration.
	Added []int
	// IOpt and PeakK are the optimized operating point afterwards.
	IOpt  float64
	PeakK float64
	// OverLimit lists tiles still above the limit afterwards.
	OverLimit []int
}

// DeployResult is the outcome of GreedyDeploy.
type DeployResult struct {
	// Success is true when the final peak temperature meets the limit.
	Success bool
	// Sites is the final TEC deployment (sorted tile indices).
	Sites []int
	// Current holds the final optimized operating point.
	Current *CurrentResult
	// NoTECPeakK is the passive peak temperature (Table I column 1).
	NoTECPeakK float64
	// Iterations traces the greedy loop.
	Iterations []DeployIteration
	// System is the final assembled system (for further analysis).
	System *System
}

// GreedyDeploy runs the paper's deployment algorithm for the given
// configuration and maximum allowable silicon temperature limitK.
func GreedyDeploy(cfg Config, limitK float64, opt CurrentOptions) (res *DeployResult, err error) {
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if r := obs.Enabled(); r != nil {
		// One span per deployment: the root of a chip's solve tree in
		// Table I traces (the passive solve and each OptimizeCurrent
		// iteration nest under it via opt.Ctx).
		var sp obs.Span
		opt.Ctx, sp = r.StartSpanCtx(opt.Ctx, "core.greedy_deploy")
		defer func() {
			if res != nil {
				sp.Annotate("success", strconv.FormatBool(res.Success))
				sp.AnnotateInt("sites", int64(len(res.Sites)))
				sp.AnnotateInt("iterations", int64(len(res.Iterations)))
			}
			sp.End()
		}()
	}
	// Line 3-4: passive solve, initial over-limit set.
	passive, err := NewSystem(cfg, nil)
	if err != nil {
		return nil, err
	}
	peak0, tile0, theta0, err := passive.PeakAtCtx(opt.Ctx, 0)
	if err != nil {
		return nil, err
	}
	res = &DeployResult{NoTECPeakK: peak0}
	overLimit := passive.OverLimitTiles(theta0, limitK)
	if len(overLimit) == 0 {
		// Already compliant: no TECs needed. The passive solve is the
		// operating point OptimizeCurrent reports for a TEC-less system.
		res.Success = true
		res.System = passive
		res.Current = &CurrentResult{
			IOpt: 0, PeakK: peak0, PeakTile: tile0, Theta: theta0,
			LambdaM: math.Inf(1), Evaluations: 1,
		}
		return res, nil
	}

	covered := make(map[int]bool)
	for {
		// Line 7: S_TEC = S_TEC u T.
		var added []int
		for _, t := range overLimit {
			if !covered[t] {
				covered[t] = true
				added = append(added, t)
			}
		}
		sites := sortedKeys(covered)

		// Line 8-9: optimize the current for this deployment and solve.
		sys, cur, err := deployPass(cfg, sites, added, opt)
		if err != nil {
			return nil, err
		}

		// Line 10: recompute T.
		overLimit = sys.OverLimitTiles(cur.Theta, limitK)
		res.Iterations = append(res.Iterations, DeployIteration{
			Added: added, IOpt: cur.IOpt, PeakK: cur.PeakK, OverLimit: overLimit,
		})
		res.Sites = sites
		res.Current = cur
		res.System = sys

		// Line 11-12: success when T is empty.
		if len(overLimit) == 0 {
			res.Success = true
			return res, nil
		}
		// Line 13-14: failure when every over-limit tile is already
		// covered — adding more TECs cannot help.
		allCovered := true
		for _, t := range overLimit {
			if !covered[t] {
				allCovered = false
				break
			}
		}
		if allCovered {
			res.Success = false
			return res, nil
		}
	}
}

// deployPass builds the system of one pass of the greedy loop and
// optimizes its current. In a recorded trace the pass is a
// "core.greedy.iteration" span under opt.Ctx's span, annotated with the
// tiles it added.
func deployPass(cfg Config, sites, added []int, opt CurrentOptions) (*System, *CurrentResult, error) {
	if r := obs.Enabled(); r.Tracing() {
		var sp obs.Span
		opt.Ctx, sp = r.StartSpanCtx(opt.Ctx, "core.greedy.iteration")
		tiles := make([]string, len(added))
		for k, t := range added {
			tiles[k] = strconv.Itoa(t)
		}
		sp.Annotate("added", strings.Join(tiles, ","))
		defer sp.End()
	}
	sys, err := NewSystem(cfg, sites)
	if err != nil {
		return nil, nil, err
	}
	cur, err := sys.OptimizeCurrent(opt)
	if err != nil {
		return nil, nil, err
	}
	return sys, cur, nil
}

// FullCover runs the paper's baseline: a TEC on every tile, with the
// supply current still optimized by the convex programming routine. The
// comparison quantifies the "cooling swing loss" of excessive deployment
// (Table I columns under Full Cover).
func FullCover(cfg Config, opt CurrentOptions) (*CurrentResult, *System, error) {
	cfg = cfg.withDefaults()
	nt := cfg.Cols * cfg.Rows
	sites := make([]int, nt)
	for i := range sites {
		sites[i] = i
	}
	sys, err := NewSystem(cfg, sites)
	if err != nil {
		return nil, nil, err
	}
	cur, err := sys.OptimizeCurrent(opt)
	if err != nil {
		return nil, nil, err
	}
	return cur, sys, nil
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
