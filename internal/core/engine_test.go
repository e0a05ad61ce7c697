package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"tecopt/internal/engine"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/thermal"
)

// Tests for the per-System solver state (the SMW fast path a System
// builds on first use) and the safety of concurrent solves on one
// System (run under -race by `make race` and CI's race step).

func TestFastPathBuiltOnceUnderConcurrentFirstSolves(t *testing.T) {
	// Eight goroutines make the first solve of one fresh System at
	// once: exactly one fast-path setup runs, and every goroutine sees
	// its result.
	sys := mustSystem(t, smallConfig(), []int{27, 28, 35, 36})
	before := SolverCacheStats().Misses
	const goroutines = 8
	states := make([]*thermal.ReusableSystem, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := sys.SolveAt(1.5); err != nil {
				t.Error(err)
				return
			}
			states[g] = sys.reusable(context.Background())
		}(g)
	}
	wg.Wait()
	if got := SolverCacheStats().Misses - before; got != 1 {
		t.Fatalf("%d fast-path setups for one System, want 1", got)
	}
	for g, st := range states {
		if st == nil || st != states[0] {
			t.Fatalf("goroutine %d saw fast-path state %p, want %p", g, st, states[0])
		}
	}
}

func TestSystemsNeverShareFastPathState(t *testing.T) {
	// Two Systems built from the same configuration and sites own
	// separate fast-path states, which solve to the same bits.
	a := mustSystem(t, smallConfig(), []int{27})
	b := mustSystem(t, smallConfig(), []int{27})
	xa, err := a.SolveAt(1.5)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := b.SolveAt(1.5)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.reusable(context.Background()), b.reusable(context.Background())
	if ra == nil || rb == nil {
		t.Fatal("fast-path setup failed")
	}
	if ra == rb {
		t.Fatal("two Systems share one fast-path state")
	}
	for n := range xa {
		if !num.ExactEqual(xa[n], xb[n]) {
			t.Fatalf("node %d: %v != %v", n, xa[n], xb[n])
		}
	}
}

func TestHColumnsDirectFactorsOnce(t *testing.T) {
	// On the direct path HColumns factors G - i*D once for all its
	// columns, and each column is bitwise the per-column solve.
	cfg := smallConfig()
	cfg.Solve = SolveDirect
	sys := mustSystem(t, cfg, []int{27, 28})
	cols := []int{sys.PN.SilNode[27], sys.PN.SilNode[0], sys.Array.Hot[0], sys.Array.Cold[1]}

	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	h, err := sys.HColumns(2.0, cols, engine.Pool{Workers: 2})
	obs.SetGlobal(prev)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Counters["sparse.band.factors"]; got != 1 {
		t.Fatalf("HColumns ran %d factorizations for %d columns, want 1", got, len(cols))
	}
	for idx, l := range cols {
		for _, k := range []int{0, sys.PN.SilNode[27], l, sys.NumNodes() - 1} {
			want, err := sys.Hkl(2.0, k, l)
			if err != nil {
				t.Fatal(err)
			}
			if !num.ExactEqual(h[idx][k], want) {
				t.Fatalf("H[%d][%d] = %v, want h_kl = %v", idx, k, h[idx][k], want)
			}
		}
	}
}

func TestRepeatedSolveBitIdentical(t *testing.T) {
	// A second solve at one current, on the state the first one built,
	// must reproduce the first bit-for-bit.
	sys := mustSystem(t, smallConfig(), []int{27, 28, 35, 36})
	first, err := sys.SolveAt(3.25)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.SolveAt(3.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !num.ExactEqual(first[i], second[i]) {
			t.Fatalf("node %d: repeated solve %v != first solve %v", i, second[i], first[i])
		}
	}
}

func TestConcurrentFactorAndSolveOnSharedSystem(t *testing.T) {
	// Many goroutines factor and solve the same System at overlapping
	// currents. Under -race this is the core concurrency-safety test;
	// in any mode it checks that every goroutine sees the exact serial
	// solution.
	sys := mustSystem(t, smallConfig(), []int{27, 28})
	currents := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5}
	want := make([][]float64, len(currents))
	for idx, i := range currents {
		theta, err := sys.SolveAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want[idx] = theta
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				idx := (g + rep) % len(currents)
				theta, err := sys.SolveAt(currents[idx])
				if err != nil {
					t.Errorf("solve at %g: %v", currents[idx], err)
					return
				}
				for n := range theta {
					if !num.ExactEqual(theta[n], want[idx][n]) {
						t.Errorf("current %g node %d: concurrent %v != serial %v",
							currents[idx], n, theta[n], want[idx][n])
						return
					}
				}
				if _, _, _, err := sys.PeakAt(currents[idx]); err != nil {
					t.Errorf("peak at %g: %v", currents[idx], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentRunawayProbesShareCache(t *testing.T) {
	// Concurrent binary searches on the same system must agree and not
	// race; beyond-limit probes exercise the not-PD answer of the shared
	// fast-path state.
	sys := mustSystem(t, smallConfig(), []int{27, 28, 35, 36})
	ref, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lam, err := sys.RunawayLimit(RunawayOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if !num.ExactEqual(lam, ref) || math.IsInf(lam, 1) {
				t.Errorf("concurrent lambda_m %v != %v", lam, ref)
			}
		}()
	}
	wg.Wait()
}
