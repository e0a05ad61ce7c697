package bench

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"tecopt/internal/floorplan"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

// Observability acceptance tests for the ISSUE contract: with the obs
// flags off, experiment output is byte-identical to the pre-obs tree
// (pinned by goldens captured before the layer existed); with obs on,
// two identical serial runs produce byte-identical snapshots once the
// timing histograms ("_ns" metrics) are stripped.

// withRegistry installs a fresh registry for the duration of fn and
// restores the previous global afterwards.
func withRegistry(t *testing.T, fn func(r *obs.Registry)) {
	t.Helper()
	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)
	fn(r)
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("reading golden (captured from the pre-obs tree): %v", err)
	}
	return string(b)
}

// TestDisabledObsTableIMatchesPreObsGolden pins the all-flags-off
// contract for Table I: the formatted Alpha row must be byte-identical
// to the output of the tree before the observability layer was added.
func TestDisabledObsTableIMatchesPreObsGolden(t *testing.T) {
	if obs.Enabled() != nil {
		t.Fatal("a global registry is installed; this test needs the disabled path")
	}
	f, g := floorplan.Alpha21364Grid()
	row, err := RunTableIRow("Alpha", power.AlphaTilePowers(f, g), TableIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := FormatTableI([]*TableIRow{row})
	if want := readGolden(t, "golden_tablei_alpha.txt"); got != want {
		t.Errorf("Table I output differs from the pre-obs golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDisabledObsFigure6MatchesPreObsGolden is the same contract for
// the Figure 6 sweep.
func TestDisabledObsFigure6MatchesPreObsGolden(t *testing.T) {
	if obs.Enabled() != nil {
		t.Fatal("a global registry is installed; this test needs the disabled path")
	}
	res, err := RunFigure6Opts(Figure6Options{Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := FormatFigure6(res)
	if want := readGolden(t, "golden_figure6.txt"); got != want {
		t.Errorf("Figure 6 output differs from the pre-obs golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// figure6SnapshotJSON runs the serial Figure 6 sweep under a fresh
// registry from a cold factor cache and returns the non-timing view of
// the final snapshot.
func figure6SnapshotJSON(t *testing.T) []byte {
	t.Helper()
	var out []byte
	withRegistry(t, func(r *obs.Registry) {
		if _, err := RunFigure6Opts(Figure6Options{Points: 8}); err != nil {
			t.Fatal(err)
		}
		b, err := r.Snapshot().WithoutTimings().JSON()
		if err != nil {
			t.Fatal(err)
		}
		out = b
	})
	return out
}

// TestSnapshotDeterministicAcrossSerialRuns runs the same serial
// workload twice and demands byte-identical snapshots modulo timing
// histograms: every count, iteration total, gauge and residual must
// reproduce exactly.
func TestSnapshotDeterministicAcrossSerialRuns(t *testing.T) {
	first := figure6SnapshotJSON(t)
	second := figure6SnapshotJSON(t)
	if string(first) != string(second) {
		t.Errorf("snapshots of identical serial runs differ\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if len(first) <= len("{}\n") {
		t.Fatalf("snapshot is empty; instrumentation did not fire:\n%s", first)
	}
}

// TestObsOverheadOnTableI measures the enabled-registry overhead on the
// BenchmarkEngine Table I path and fails above the 5%% budget. Wall
// timing is load-sensitive, so the test only runs when requested:
//
//	OBS_OVERHEAD=1 go test ./internal/bench -run TestObsOverheadOnTableI -v
//
// (the Makefile target obs-overhead, wired into CI, does exactly this).
func TestObsOverheadOnTableI(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD") == "" {
		t.Skip("set OBS_OVERHEAD=1 to measure instrumentation overhead")
	}
	f, g := floorplan.Alpha21364Grid()
	tp := power.AlphaTilePowers(f, g)
	run := func() {
		if _, err := RunTableIRow("Alpha", tp, TableIOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	timed := func() time.Duration {
		start := time.Now()
		run()
		return time.Since(start)
	}
	// Best-of-N wall time per side: the minimum is the least
	// load-contaminated estimate of the true cost. The sides alternate
	// run by run, so a slow episode of the host hits both alike, and N
	// keeps about 4 s of runs per side (a row takes ~0.35 s).
	const reps = 12
	run() // warm-up: page in code and data before either measurement
	off, on := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < reps; i++ {
		off = min(off, timed())
		prev := obs.SetGlobal(obs.New(nil))
		on = min(on, timed())
		obs.SetGlobal(prev)
	}

	overhead := float64(on-off) / float64(off)
	t.Logf("obs off %v, on %v, overhead %.2f%%", off, on, 100*overhead)
	if overhead > 0.05 {
		t.Errorf("observability overhead %.2f%% exceeds the 5%% budget (off %v, on %v)", 100*overhead, off, on)
	}
}
