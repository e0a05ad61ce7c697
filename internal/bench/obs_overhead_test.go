//go:build unix

package bench

import (
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"tecopt/internal/floorplan"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

// TestObsOverheadOnTableI measures what an installed registry costs one
// Alpha row of Table I and fails above the 5% budget. Each side is
// timed in process CPU time, user plus system, which counts the
// collector's work and not the time a shared host keeps the process
// waiting for a CPU. The sides run in pairs, alternating which goes
// first, and the gate is the median of the per-pair on/off ratios: a
// slow episode of the host moves both runs of a pair, and a few
// outlying pairs do not move the median. It only runs when requested,
// as the Makefile target obs-overhead (wired into CI) does:
//
//	OBS_OVERHEAD=1 go test ./internal/bench -run TestObsOverheadOnTableI -v
func TestObsOverheadOnTableI(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD") == "" {
		t.Skip("set OBS_OVERHEAD=1 to measure instrumentation overhead")
	}
	f, g := floorplan.Alpha21364Grid()
	tp := power.AlphaTilePowers(f, g)
	row := func(on bool) time.Duration {
		if on {
			prev := obs.SetGlobal(obs.New(nil))
			defer obs.SetGlobal(prev)
		}
		// Collect the last row's garbage outside the measurement.
		runtime.GC()
		start := processCPU(t)
		if _, err := RunTableIRow("Alpha", tp, TableIOptions{}); err != nil {
			t.Fatal(err)
		}
		return processCPU(t) - start
	}
	row(false) // warm-up: page in code and data before either side
	const pairs = 64
	ratios := make([]float64, pairs)
	var off, on time.Duration
	for k := range ratios {
		var a, b time.Duration
		if k%2 == 0 {
			a, b = row(false), row(true)
		} else {
			b, a = row(true), row(false)
		}
		off, on = off+a, on+b
		ratios[k] = float64(b) / float64(a)
	}
	slices.Sort(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	t.Logf("CPU per Alpha row: obs off %v, on %v (means of %d pairs); on/off ratio median %.4f, quartiles %.4f-%.4f",
		off/pairs, on/pairs, pairs, median, ratios[pairs/4], ratios[3*pairs/4-1])
	if median > 1.05 {
		t.Errorf("observability overhead %.2f%% (median on/off CPU ratio) exceeds the 5%% budget", 100*(median-1))
	}
}

// processCPU returns the CPU time the process has used, user plus
// system.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
