package core

import (
	"context"
	"testing"
)

// BenchmarkEngine_HklSweep_SMW isolates the per-current solve path on
// the Figure-6 inner loop, one h_kl evaluation per current-grid point:
// "smw" pays one base factorization plus a rank-m correction per
// current, "direct" refactors the shifted matrix at every grid point.
// Both sweep a fresh System, so the fast-path setup is timed with the
// points and the ratio is the pure algorithmic win.
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
				if _, err := fresh.HklSweep(context.Background(), k, k, currents); err != nil {
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
