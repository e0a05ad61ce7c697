package bench

import (
	"testing"

	"tecopt/internal/core"
)

// BenchmarkEngine_TableI has a serial sub-benchmark (Parallel: 1) and a
// parallel one (Parallel: 0 = GOMAXPROCS); comparing the two on a
// multicore host measures the worker-pool speedup. Full Table I is
// seconds of work per iteration — run it with -benchtime=1x:
//
//	go test ./internal/bench -bench BenchmarkEngine_TableI -benchtime=1x
func BenchmarkEngine_TableI(b *testing.B) {
	for _, bm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bm.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := RunTableI(TableIOptions{Parallel: bm.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine_TableI_SMW is the CI-gated fast-path entry: the full
// serial Table I with the Sherman-Morrison-Woodbury per-current solves
// requested explicitly (cmd/benchjson -gate fails the build when this
// regresses against the BENCH_solver.json snapshot). Compare against
// BenchmarkEngine_TableI_Direct for the per-current refactorization
// cost the fast path removes.
func BenchmarkEngine_TableI_SMW(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := RunTableI(TableIOptions{Parallel: 1, Solve: core.SolveAuto}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_TableI_Direct(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := RunTableI(TableIOptions{Parallel: 1, Solve: core.SolveDirect}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_Figure6 times the serial runaway-curve sweep:
// deployment, lambda_m, the h_kl sweep and one peak solve per point.
func BenchmarkEngine_Figure6(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := RunFigure6Opts(Figure6Options{Points: 24}); err != nil {
			b.Fatal(err)
		}
	}
}
