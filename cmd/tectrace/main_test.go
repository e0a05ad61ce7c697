package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tecopt/internal/obs"
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
	r.EnableTraceOpts(obs.TraceOptions{Flight: true})
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

func TestFlatTraceDegradesGracefully(t *testing.T) {
	clk := &obs.ManualClock{}
	r := obs.New(clk)
	r.EnableTrace(0) // flat: no flight recorder
	sp := r.StartSpan("core.hkl_sweep")
	clk.Advance(time.Millisecond)
	sp.End()
	r.Event("core.runaway_limit.bracket_hi", 4.5)

	var trace bytes.Buffer
	if err := r.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(path, 5, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "flat trace") {
		t.Errorf("flat trace not flagged:\n%s", s)
	}
	if !strings.Contains(s, "none recorded") {
		t.Errorf("flat trace without solve spans not reported as such:\n%s", s)
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
