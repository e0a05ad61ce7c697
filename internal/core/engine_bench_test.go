package core

import (
	"testing"

	"tecopt/internal/engine"
)

// BenchmarkEngine_HklSweep measures the worker pool on the Figure-6
// inner loop: one h_kl evaluation per current-grid point, on a fresh
// System, so the fast-path setup and the column's one base solve are
// timed with the points. The points cost microseconds each, a fraction
// of the setup, so the parallel sub-benchmark measures the pool's
// overhead rather than a speed-up of serial/GOMAXPROCS.
func BenchmarkEngine_HklSweep(b *testing.B) {
	sys, err := NewSystem(smallConfig(), []int{27, 28})
	if err != nil {
		b.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		b.Fatal(err)
	}
	currents := make([]float64, 32)
	for i := range currents {
		currents[i] = lambda * float64(i) / float64(len(currents))
	}
	k := sys.PN.SilNode[27]
	for _, bm := range []struct {
		name string
		pool engine.Pool
	}{{"serial", engine.Serial}, {"parallel", engine.Pool{}}} {
		b.Run(bm.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				fresh := freshSystem(b, sys) // time the setup and the sweep
				if _, err := fresh.HklSweepParallel(k, k, currents, bm.pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine_HklSweep_SMW isolates the per-current solve path on
// the same sweep: "smw" pays one base factorization plus a rank-m
// correction per current, "direct" refactors the shifted matrix at
// every grid point. Both run serial on a fresh System, so the ratio is
// the pure algorithmic win.
func BenchmarkEngine_HklSweep_SMW(b *testing.B) {
	for _, bm := range []struct {
		name string
		path SolvePath
	}{{"smw", SolveAuto}, {"direct", SolveDirect}} {
		b.Run(bm.name, func(b *testing.B) {
			cfg := smallConfig()
			cfg.Solve = bm.path
			sys, err := NewSystem(cfg, []int{27, 28})
			if err != nil {
				b.Fatal(err)
			}
			lambda, err := sys.RunawayLimit(RunawayOptions{})
			if err != nil {
				b.Fatal(err)
			}
			currents := make([]float64, 32)
			for i := range currents {
				currents[i] = lambda * float64(i) / float64(len(currents))
			}
			k := sys.PN.SilNode[27]
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				fresh := freshSystem(b, sys)
				if _, err := fresh.HklSweepParallel(k, k, currents, engine.Serial); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// freshSystem rebuilds sys with the timer stopped, so the timed work
// that follows includes the System's own fast-path setup.
func freshSystem(b *testing.B, sys *System) *System {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	fresh, err := NewSystem(sys.Cfg, sys.Sites())
	if err != nil {
		b.Fatal(err)
	}
	return fresh
}
