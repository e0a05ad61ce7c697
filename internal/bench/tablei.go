// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI): Table I (Alpha + HC01..HC10, greedy vs
// full-cover), Figure 6 (h_kl(i) runaway curves), Figure 7 (deployment
// map), the HotSpot-validation experiment, the Conjecture-1 campaign,
// and the ablations called out in DESIGN.md. Each experiment returns
// structured rows plus a paper-style formatted table.
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/engine"
	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/power"
	"tecopt/internal/tecerr"
)

// TableIRow is one benchmark row of Table I.
type TableIRow struct {
	Name string
	// NoTECPeakC is the passive peak temperature (Column "No TEC").
	NoTECPeakC float64
	// LimitC is the maximum allowable temperature used (85 C, or the
	// smallest integer limit at which the greedy succeeds, mirroring the
	// paper's 89/88 C retries for HC06/HC09).
	LimitC float64
	// FailedAt85 marks chips that needed a relaxed limit.
	FailedAt85 bool
	// NumTECs, IOptA, PTECW describe the greedy deployment.
	NumTECs int
	IOptA   float64
	PTECW   float64
	// GreedyPeakC is the achieved peak with the greedy deployment.
	GreedyPeakC float64
	// FullCoverMinPeakC is the baseline's best achievable peak
	// (Column "Full Cover / min theta_peak").
	FullCoverMinPeakC float64
	// SwingLossC = FullCoverMinPeakC - GreedyPeakC (Column "SwingLoss").
	SwingLossC float64
	// Iterations counts greedy passes; Runtime is wall-clock.
	Iterations int
	Runtime    time.Duration
	// Sites is the final deployment.
	Sites []int
}

// TableIOptions configures the Table I run.
type TableIOptions struct {
	// BaseLimitC is the initial allowable temperature (default 85).
	BaseLimitC float64
	// Solve selects the per-current solve path for every chip (forwarded
	// to core.Config.Solve): SolveAuto is the SMW fast path, SolveDirect
	// refactors at every current.
	Solve core.SolvePath
	// Parallel is the number of chips evaluated concurrently: <= 0 uses
	// GOMAXPROCS, 1 is the pure-serial fallback. Chips are independent
	// and rows are collected by chip index, so the table is identical at
	// every worker count (Runtime excepted, and FormatTableI does not
	// print it).
	Parallel int
	// Ctx, when non-nil, cancels the run between chips and between the
	// inner solves of each chip (it flows into the per-chip current
	// optimization). On cancellation RunTableI still returns the rows
	// completed so far.
	Ctx context.Context
}

func (o TableIOptions) withDefaults() TableIOptions {
	if num.IsZero(o.BaseLimitC) {
		o.BaseLimitC = 85
	}
	return o
}

// maxLimitC caps the relaxation retries of a chip's allowable
// temperature (C).
const maxLimitC = 95.0

// RunTableIRow evaluates one chip: passive peak, greedy deployment with
// relaxation retries, and the full-cover baseline.
func RunTableIRow(name string, tilePower []float64, opt TableIOptions) (*TableIRow, error) {
	opt = opt.withDefaults()
	cfg := core.Config{TilePower: tilePower, Solve: opt.Solve}
	current := core.CurrentOptions{Ctx: opt.Ctx}
	start := time.Now()

	row := &TableIRow{Name: name, LimitC: opt.BaseLimitC}
	var res *core.DeployResult
	for limit := opt.BaseLimitC; limit <= maxLimitC; limit++ {
		r, err := core.GreedyDeploy(cfg, material.CelsiusToKelvin(limit), current)
		if err != nil {
			return nil, fmt.Errorf("bench: %s at %g C: %w", name, limit, err)
		}
		res = r
		row.LimitC = limit
		if r.Success {
			break
		}
		row.FailedAt85 = true
	}
	if res == nil || !res.Success {
		return nil, tecerr.Newf(tecerr.CodeInternal, "bench.tablei", "bench: %s infeasible up to %g C", name, maxLimitC)
	}
	row.NoTECPeakC = material.KelvinToCelsius(res.NoTECPeakK)
	row.NumTECs = len(res.Sites)
	row.Sites = res.Sites
	row.IOptA = res.Current.IOpt
	row.PTECW = res.Current.TECPowerW
	row.GreedyPeakC = material.KelvinToCelsius(res.Current.PeakK)
	row.Iterations = len(res.Iterations)

	fc, _, err := core.FullCover(cfg, current)
	if err != nil {
		return nil, fmt.Errorf("bench: %s full cover: %w", name, err)
	}
	row.FullCoverMinPeakC = material.KelvinToCelsius(fc.PeakK)
	row.SwingLossC = row.FullCoverMinPeakC - row.GreedyPeakC
	row.Runtime = time.Since(start)
	return row, nil
}

// RunTableI reproduces the full Table I: the Alpha-21364-like chip plus
// the ten hypothetical chips. Chips run on an engine pool sized by
// opt.Parallel; on failure the error of the lowest-index chip is
// returned, exactly as the serial loop would report it.
//
// On error the rows completed before the failure are still returned —
// entries for failed or unstarted chips are nil — so a timed-out or
// degraded run can flush its partial table instead of discarding paid-for
// work. A nil error guarantees every row is non-nil.
func RunTableI(opt TableIOptions) ([]*TableIRow, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	f, g := floorplan.Alpha21364Grid()
	chips, err := power.GenerateHCSuite(power.DefaultHCSpec())
	if err != nil {
		return nil, err
	}
	names := []string{"Alpha"}
	powers := [][]float64{power.AlphaTilePowers(f, g)}
	for _, c := range chips {
		names = append(names, c.Name)
		powers = append(powers, c.TilePower)
	}

	rows := make([]*TableIRow, len(names))
	err = engine.Pool{Workers: opt.Parallel}.MapTasksCtx(ctx, len(names), func(tctx context.Context, i int) error {
		// Each chip runs under its task context, so cancellation still
		// flows and — when a trace is recorded — the chip's whole
		// solve tree (greedy deploy, current optimization, runaway
		// search) nests under its pool task with the worker's track.
		row, err := RunTableIRow(names[i], powers[i], TableIOptions{
			BaseLimitC: opt.BaseLimitC,
			Solve:      opt.Solve,
			Ctx:        tctx,
		})
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return rows, err
	}
	return rows, nil
}

// FormatTableI renders rows in the layout of the paper's Table I, with
// the trailing average row for P_TEC and SwingLoss.
func FormatTableI(rows []*TableIRow) string {
	var b strings.Builder
	b.WriteString("            No TEC  |        Greedy Deployment          | Full Cover\n")
	b.WriteString("Chip   theta_peak C | limit C #TECs  Iopt A  PTEC W peak C | min peak C  SwingLoss C\n")
	var sumPTEC, sumLoss float64
	for _, r := range rows {
		mark := " "
		if r.FailedAt85 {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-6s %10.1f |%s%6.0f %5d %7.2f %7.2f %6.1f | %10.1f %12.1f\n",
			r.Name, r.NoTECPeakC, mark, r.LimitC, r.NumTECs, r.IOptA, r.PTECW,
			r.GreedyPeakC, r.FullCoverMinPeakC, r.SwingLossC)
		sumPTEC += r.PTECW
		sumLoss += r.SwingLossC
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-6s %10s |%7s %5s %7s %7.2f %6s | %10s %12.1f\n",
			"Avg.", "", "", "", "", sumPTEC/n, "", "", sumLoss/n)
	}
	b.WriteString("(* limit relaxed after failure at 85 C, per the paper's HC06/HC09 treatment)\n")
	return b.String()
}

// Summary statistics helpers for EXPERIMENTS.md and assertions.

// MaxCoolingSwingC returns the largest no-TEC-to-greedy peak drop across
// rows (the paper reports up to 7.5 C).
func MaxCoolingSwingC(rows []*TableIRow) float64 {
	best := math.Inf(-1)
	for _, r := range rows {
		if s := r.NoTECPeakC - r.GreedyPeakC; s > best {
			best = s
		}
	}
	return best
}

// AvgSwingLossC returns the average full-cover swing loss (paper: 4.2 C).
func AvgSwingLossC(rows []*TableIRow) float64 {
	var s float64
	for _, r := range rows {
		s += r.SwingLossC
	}
	return s / float64(len(rows))
}

// FailuresAtBase returns the chips that needed a relaxed limit.
func FailuresAtBase(rows []*TableIRow) []string {
	var out []string
	for _, r := range rows {
		if r.FailedAt85 {
			out = append(out, r.Name)
		}
	}
	return out
}
