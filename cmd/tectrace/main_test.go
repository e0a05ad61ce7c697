package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/tec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildTrace records a small deterministic solve tree on a manual
// clock: an optimize_current root with three reusable solves (smw,
// near-limit direct, and a guard-trip fallback), a cache event, a
// runaway probe, and a beyond-limit solve inside a pool task on a
// worker track.
func buildTrace(t *testing.T) *obs.Registry {
	t.Helper()
	clk := &obs.ManualClock{}
	r := obs.New(clk)
	r.EnableTraceOpts(obs.TraceOptions{})
	ctx := context.Background()

	ctx, root := r.StartSpanCtx(ctx, "core.optimize_current") // id 1
	clk.Advance(time.Microsecond)

	sctx, sp := r.StartSpanCtx(ctx, "thermal.reusable.solve") // id 2
	sp.AnnotateFloat("current", 1.25)
	sp.Annotate("regime", "smw")
	clk.Advance(10 * time.Microsecond)
	r.EventCtx(sctx, "engine.factors.hit", 1.25,
		obs.Attr{Key: "gen", Value: "3"}, obs.Attr{Key: "current", Value: "1.25"})
	sp.End()

	_, sp = r.StartSpanCtx(ctx, "thermal.reusable.solve") // id 3
	sp.AnnotateFloat("current", 3.5)
	sp.Annotate("regime", "direct")
	sp.Annotate("near_memo", "true")
	clk.Advance(40 * time.Microsecond)
	sp.End()

	_, sp = r.StartSpanCtx(ctx, "thermal.reusable.solve") // id 4
	sp.AnnotateFloat("current", 2.0)
	sp.Annotate("regime", "fallback")
	sp.Annotate("guard_reason", "diverged")
	sp.Annotate("near_memo", "false")
	clk.Advance(125 * time.Microsecond)
	sp.End()

	r.EventCtx(ctx, "core.runaway.probe", 4.7, obs.Attr{Key: "pd", Value: "false"})
	root.End()

	// One solve inside a pool task on a worker track.
	wctx := obs.ContextWithTrack(context.Background(), 2)
	wctx, wsp := r.StartSpanCtx(wctx, "engine.pool.task") // id 5
	clk.Advance(time.Microsecond)
	_, sp = r.StartSpanCtx(wctx, "thermal.reusable.solve") // id 6
	sp.AnnotateFloat("current", 4.9)
	sp.Annotate("regime", "beyond-limit")
	clk.Advance(30 * time.Microsecond)
	sp.End()
	wsp.End()
	return r
}

// checkGolden compares got against the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestReportGoldenJSONL(t *testing.T) {
	r := buildTrace(t)
	var trace bytes.Buffer
	if err := r.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "flight.jsonl", trace.Bytes())
	runGolden(t, trace.Bytes())
}

func TestReportGoldenPerfetto(t *testing.T) {
	r := buildTrace(t)
	var trace bytes.Buffer
	if err := r.WriteTracePerfetto(&trace); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "flight.perfetto.json", trace.Bytes())
	runGolden(t, trace.Bytes())
}

// runGolden runs the analyzer over the trace bytes and checks the
// report golden. Both exporters must yield the identical report — the
// Perfetto parser round-trips everything the analyzer reads.
func runGolden(t *testing.T, trace []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(path, 5, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden", out.Bytes())
}

// TestDefaultTraceOfRealSolve records a real greedy deployment through
// the CLI flag bundle with no -trace-format (the default exporter) and
// runs the analyzer on the file: every span carries an ID and every
// span under the deployment root a parent, the regime table matches
// the run's regime counters, and a critical path is printed.
func TestDefaultTraceOfRealSolve(t *testing.T) {
	p := make([]float64, 64)
	for i := range p {
		p[i] = 0.08
	}
	for _, tile := range []int{27, 28, 35, 36} {
		p[tile] = 0.7
	}
	cfg := core.Config{
		Geom: material.DefaultPackage(), Cols: 8, Rows: 8,
		SpreaderCells: 10, SinkCells: 10,
		Device: tec.ChowdhuryDevice(), TilePower: p,
	}
	passive, err := core.NewSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak0, _, _, err := passive.PeakAt(0)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	session, err := (&obs.Flags{Trace: path}).Start()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.GreedyDeploy(cfg, peak0-2, core.CurrentOptions{})
	if cerr := session.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("deployment placed no TECs; the trace would record no TEC solves")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	td, err := parseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, ev := range td.events {
		if ev.Kind != "span" {
			continue
		}
		if ev.ID == 0 {
			t.Errorf("span without ID: %+v", ev)
		}
		if ev.Parent == 0 {
			roots++
			if ev.Name != "core.greedy_deploy" {
				t.Errorf("span outside the deployment tree: %+v", ev)
			}
		}
	}
	if roots != 1 {
		t.Errorf("root spans = %d, want the one deployment span", roots)
	}

	var out bytes.Buffer
	if err := run(path, 5, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	regimes := map[string]uint64{}
	inTable := false
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, "Solve regimes"):
			inTable = true
		case inTable && strings.HasPrefix(line, "  "):
			var name string
			var n uint64
			if _, err := fmt.Sscan(line, &name, &n); err != nil {
				t.Fatalf("regime row %q: %v", line, err)
			}
			regimes[name] = n
		default:
			inTable = false
		}
	}
	reg := session.Reg
	want := map[string]uint64{
		"smw":          reg.Counter("thermal.reusable.smw_hits").Value(),
		"direct":       reg.Counter("thermal.reusable.near_limit").Value(),
		"fallback":     reg.Counter("thermal.reusable.fallbacks").Value(),
		"beyond-limit": reg.Counter("thermal.reusable.beyond_limit").Value(),
	}
	var total uint64
	for name, n := range want {
		total += n
		if regimes[name] != n {
			t.Errorf("regime %s: table %d, counter %d", name, regimes[name], n)
		}
	}
	if want["smw"] == 0 || regimes["total"] != total {
		t.Errorf("regime total: table %d, counters %d (smw %d)\n%s", regimes["total"], total, want["smw"], report)
	}
	if !strings.Contains(report, "Critical path of the slowest solve (thermal.reusable.solve") {
		t.Errorf("no critical path in the report:\n%s", report)
	}
}

func TestEmptyAndMalformedInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, 5, &bytes.Buffer{}); err == nil {
		t.Error("empty file: want error")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, 5, &bytes.Buffer{}); err == nil {
		t.Error("malformed JSONL: want error")
	}
}
