// Chaos suite: a seeded injector crossed with {panic, NaN, cancel,
// non-convergence} crossed with {serial, parallel} (a worker pool, or
// concurrent callers of the serial h_kl sweep), run against the real
// solve pipeline. The contract under test is the robustness
// invariant: every injected fault must surface as a typed tecerr error
// or, for a tripped SMW conditioning guard, as the direct path's exact
// answer — never as a crash, a deadlock, or a silently wrong answer.
// CI runs this file under -race (make chaos).
//
// The injector is process-global, so no test here calls t.Parallel;
// each installs its injector and defers Uninstall.
package faults_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tecopt/internal/core"
	"tecopt/internal/engine"
	"tecopt/internal/faults"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

// tinySystem builds a small model (4x4 die, 5x5 coarse layers, one TEC)
// on the given solve path, so chaos runs stay fast under -race.
func tinySystem(t *testing.T, path core.SolvePath) *core.System {
	t.Helper()
	p := make([]float64, 16)
	for i := range p {
		p[i] = 0.15
	}
	p[5] = 1.2
	sys, err := core.NewSystem(core.Config{
		Cols: 4, Rows: 4, SpreaderCells: 5, SinkCells: 5,
		TilePower: p, Solve: path,
	}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// tinyNetwork builds the matching bare package network plus its
// tile-power map for thermal-layer chaos.
func tinyNetwork(t *testing.T) (*thermal.PackageNetwork, []float64) {
	t.Helper()
	pn, err := thermal.BuildPackage(material.DefaultPackage(), thermal.BuildOptions{
		Cols: 4, Rows: 4, SpreaderCells: 5, SinkCells: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := make([]float64, 16)
	for i := range tp {
		tp[i] = 0.15
	}
	tp[5] = 1.2
	return pn, tp
}

// sweepCurrents samples well inside the runaway limit so a healthy
// sweep cannot fail on its own.
func sweepCurrents(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.1 * float64(i) / float64(n)
	}
	return out
}

// eachPool runs the body once serially and once on the full worker
// pool — the {serial, parallel} axis of the chaos matrix.
func eachPool(t *testing.T, body func(t *testing.T, pool engine.Pool)) {
	t.Helper()
	t.Run("serial", func(t *testing.T) { body(t, engine.Pool{Workers: 1}) })
	t.Run("parallel", func(t *testing.T) { body(t, engine.Pool{Workers: 0}) })
}

// eachCallers is the same axis for the h_kl sweep, which runs on its
// caller's goroutine: one sweep, then four concurrent sweeps of the
// same System.
func eachCallers(t *testing.T, body func(t *testing.T, callers int)) {
	t.Helper()
	t.Run("serial", func(t *testing.T) { body(t, 1) })
	t.Run("parallel", func(t *testing.T) { body(t, 4) })
}

// sweepFrom runs one h_kl sweep per caller, concurrently, and returns
// each caller's values and error.
func sweepFrom(ctx context.Context, sys *core.System, k, l int, currents []float64, callers int) ([][]float64, []error) {
	vals := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			vals[c], errs[c] = sys.HklSweep(ctx, k, l, currents)
		}(c)
	}
	wg.Wait()
	return vals, errs
}

// requirePrefix checks that got is bitwise a prefix of want.
func requirePrefix(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%d values from a %d-point sweep", len(got), len(want))
	}
	for p := range got {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("point %d: %v, want %v", p, got[p], want[p])
		}
	}
}

// TestChaosSweepPanic injects a panic into a pool worker mid-way
// through an H-column solve and demands it comes back as a typed
// CodePanic error with the recovered stack — not a process crash and
// not a deadlocked WaitGroup.
func TestChaosSweepPanic(t *testing.T) {
	sys := tinySystem(t, core.SolveAuto)
	eachPool(t, func(t *testing.T, pool engine.Pool) {
		faults.Install(faults.New(1).Arm(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.KindPanic, OnHit: 3,
		}))
		defer faults.Uninstall()
		_, err := sys.HColumns(0.05, sys.PN.SilNode, pool)
		if !errors.Is(err, tecerr.ErrPanic) {
			t.Fatalf("injected worker panic surfaced as %v, want CodePanic", err)
		}
		var te *tecerr.Error
		if !errors.As(err, &te) || len(te.Stack) == 0 {
			t.Fatalf("recovered panic lost its stack: %#v", err)
		}
	})
}

// TestChaosSweepInjectedError arms a plain injected error at one sweep
// point and checks it propagates unmangled (errors.Is reaches the
// ErrInjected cause through every wrapping layer) with the points
// finished before it, while concurrent sweeps that did not hit the
// fault complete untouched.
func TestChaosSweepInjectedError(t *testing.T) {
	sys := tinySystem(t, core.SolveAuto)
	k := sys.PN.SilNode[5]
	l := sys.Array.Hot[0]
	currents := sweepCurrents(16)
	want, err := sys.HklSweep(context.Background(), k, l, currents)
	if err != nil {
		t.Fatal(err)
	}
	eachCallers(t, func(t *testing.T, callers int) {
		faults.Install(faults.New(2).Arm(faults.Rule{
			Site: faults.SiteSweepPoint, Kind: faults.KindError, OnHit: 2,
		}))
		defer faults.Uninstall()
		vals, errs := sweepFrom(context.Background(), sys, k, l, currents, callers)
		failed := 0
		for c, err := range errs {
			requirePrefix(t, vals[c], want)
			switch {
			case err == nil && len(vals[c]) != len(want):
				t.Fatalf("nil-error sweep has %d of %d points", len(vals[c]), len(want))
			case err != nil && !errors.Is(err, faults.ErrInjected):
				t.Fatalf("injected sweep error surfaced as %v, want ErrInjected in the chain", err)
			case err != nil:
				failed++
			}
		}
		if failed != 1 {
			t.Fatalf("%d sweeps failed, want exactly the one that hit the fault", failed)
		}
		if callers == 1 && len(vals[0]) != 1 {
			t.Fatalf("error at the second point returned %d values, want 1", len(vals[0]))
		}
	})
}

// TestChaosCancelMidSweep cancels the sweep's own context from inside a
// sweep point. A single sweep must stop with a typed CodeCancelled
// error and exactly the one point it finished; concurrent sweeps on
// the same context race the cancel, so each either stops the same way
// with the points it finished or completed every point — never a
// partial slice passed off as complete.
func TestChaosCancelMidSweep(t *testing.T) {
	sys := tinySystem(t, core.SolveAuto)
	k := sys.PN.SilNode[5]
	l := sys.Array.Hot[0]
	currents := sweepCurrents(64)
	want, err := sys.HklSweep(context.Background(), k, l, currents)
	if err != nil {
		t.Fatal(err)
	}
	eachCallers(t, func(t *testing.T, callers int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults.Install(faults.New(3).Arm(faults.Rule{
			Site: faults.SiteSweepPoint, Kind: faults.KindCall, OnHit: 2, Call: cancel,
		}))
		defer faults.Uninstall()
		vals, errs := sweepFrom(ctx, sys, k, l, currents, callers)
		cancelled := 0
		for c, err := range errs {
			requirePrefix(t, vals[c], want)
			switch {
			case err == nil && len(vals[c]) != len(want):
				t.Fatalf("nil-error sweep has %d of %d points", len(vals[c]), len(want))
			case err != nil && tecerr.CodeOf(err) != tecerr.CodeCancelled:
				t.Fatalf("mid-sweep cancel surfaced as %v, want CodeCancelled", err)
			case err != nil:
				cancelled++
			}
		}
		if cancelled == 0 {
			t.Fatal("no sweep saw the cancel")
		}
		if callers == 1 && len(vals[0]) != 1 {
			t.Fatalf("cancel at the second point returned %d values, want 1", len(vals[0]))
		}
	})
}

// solvePassiveCG solves the passive network with IC(0)-preconditioned
// CG, the reference solver, and returns its error.
func solvePassiveCG(t *testing.T, pn *thermal.PackageNetwork, tp []float64) error {
	t.Helper()
	p, err := pn.PowerVector(tp)
	if err != nil {
		t.Fatal(err)
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	g := pn.Net.G()
	_, err = sparse.SolveCG(g, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(g)})
	return err
}

// TestChaosCGDivergenceTyped poisons every CG residual with NaN: the
// divergence guard must stop the solve with a typed CodeDiverged error,
// not a NaN field.
func TestChaosCGDivergenceTyped(t *testing.T) {
	pn, tp := tinyNetwork(t)
	faults.Install(faults.New(4).Arm(faults.Rule{
		Site: faults.SiteCGResidual, Kind: faults.KindNaN,
	}))
	defer faults.Uninstall()
	if err := solvePassiveCG(t, pn, tp); !errors.Is(err, tecerr.ErrDiverged) {
		t.Fatalf("NaN residual surfaced as %v, want CodeDiverged", err)
	}
}

// TestChaosCGIterationError forces the CG solve to fail with an
// injected iteration error (the forced non-convergence axis) and checks
// it propagates unmangled.
func TestChaosCGIterationError(t *testing.T) {
	pn, tp := tinyNetwork(t)
	faults.Install(faults.New(5).Arm(faults.Rule{
		Site: faults.SiteCGIteration, Kind: faults.KindError,
	}))
	defer faults.Uninstall()
	if err := solvePassiveCG(t, pn, tp); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected CG error surfaced as %v, want ErrInjected in the chain", err)
	}
}

// TestChaosPowerNaN injects NaN into a power map and demands the typed
// invalid-input rejection before anything is solved.
func TestChaosPowerNaN(t *testing.T) {
	pn, tp := tinyNetwork(t)
	faults.Install(faults.New(6).Arm(faults.Rule{
		Site: faults.SitePower, Kind: faults.KindNaN, OnHit: 3,
	}))
	defer faults.Uninstall()
	if _, err := pn.SolvePassive(tp); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("NaN power surfaced as %v, want CodeInvalidInput", err)
	}
}

// TestChaosBandPerturbNotPD corrupts the banded factorization's loaded
// band hard enough to destroy positive definiteness: the factorization
// must fail typed as CodeNotPD.
func TestChaosBandPerturbNotPD(t *testing.T) {
	pn, tp := tinyNetwork(t)
	faults.Install(faults.New(7).Arm(faults.Rule{
		Site: faults.SiteBandMatrix, Kind: faults.KindPerturb, Scale: 50,
	}))
	defer faults.Uninstall()
	if _, err := pn.SolvePassive(tp); !errors.Is(err, tecerr.ErrNotPD) {
		t.Fatalf("band corruption surfaced as %v, want CodeNotPD", err)
	}
}

// TestChaosSMWGuardTripSweep trips the SMW conditioning guard at every
// correction of an h_kl sweep: each nonzero current must fall back to
// the direct factorization, so the sweep equals the SolveDirect sweep
// bitwise, also with several sweeps of the System running at once.
func TestChaosSMWGuardTripSweep(t *testing.T) {
	auto := tinySystem(t, core.SolveAuto)
	direct := tinySystem(t, core.SolveDirect)
	k := auto.PN.SilNode[5]
	l := auto.Array.Hot[0]
	currents := sweepCurrents(16)
	want, err := direct.HklSweep(context.Background(), k, l, currents)
	if err != nil {
		t.Fatal(err)
	}
	eachCallers(t, func(t *testing.T, callers int) {
		r := obs.New(nil)
		prev := obs.SetGlobal(r)
		defer obs.SetGlobal(prev)
		faults.Install(faults.New(10).Arm(faults.Rule{
			Site: faults.SiteSMWGuard, Kind: faults.KindNaN,
		}))
		defer faults.Uninstall()
		vals, errs := sweepFrom(context.Background(), auto, k, l, currents, callers)
		for c, err := range errs {
			if err != nil {
				t.Fatalf("guard-tripped sweep: %v", err)
			}
			if len(vals[c]) != len(want) {
				t.Fatalf("guard-tripped sweep has %d of %d points", len(vals[c]), len(want))
			}
			requirePrefix(t, vals[c], want)
		}
		nonzero := uint64(0)
		for _, i := range currents {
			if !num.IsZero(i) {
				nonzero++
			}
		}
		if got, want := r.Counter("thermal.reusable.fallbacks").Value(), nonzero*uint64(callers); got != want {
			t.Fatalf("fallbacks = %d, want %d (one per nonzero current per sweep)", got, want)
		}
		if got := r.Counter("thermal.reusable.near_limit").Value(); got != 0 {
			t.Fatalf("near_limit = %d, want 0", got)
		}
	})
}

// solverReads is what TestChaosSMWSetupFailure compares across solve
// paths: one answer of every System read.
type solverReads struct {
	lambda float64
	field  []float64
	hkl    float64
	sweep  []float64
	cols   [][]float64
}

// readAll takes every read of sys at half its runaway limit, with a
// sweep that ends beyond the limit.
func readAll(t *testing.T, sys *core.System) solverReads {
	t.Helper()
	var out solverReads
	var err error
	if out.lambda, err = sys.RunawayLimit(core.RunawayOptions{}); err != nil {
		t.Fatal(err)
	}
	i := 0.5 * out.lambda
	k, l := sys.PN.SilNode[5], sys.Array.Hot[0]
	if _, _, out.field, err = sys.PeakAt(i); err != nil {
		t.Fatal(err)
	}
	if out.hkl, err = sys.Hkl(i, k, l); err != nil {
		t.Fatal(err)
	}
	currents := append(sweepCurrents(8), i, 1.01*out.lambda)
	if out.sweep, err = sys.HklSweep(context.Background(), k, l, currents); err != nil {
		t.Fatal(err)
	}
	if out.cols, err = sys.HColumns(i, []int{k, l}, engine.Pool{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosSMWSetupFailure fails the SMW setup of a SolveAuto System:
// the System must fall back to its direct-only solver and answer every
// read bitwise like a SolveDirect System, counting the failed setup
// once and never retrying it.
func TestChaosSMWSetupFailure(t *testing.T) {
	want := readAll(t, tinySystem(t, core.SolveDirect))

	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)
	in := faults.New(11).Arm(faults.Rule{Site: faults.SiteSMWSetup, Kind: faults.KindError})
	faults.Install(in)
	defer faults.Uninstall()
	got := readAll(t, tinySystem(t, core.SolveAuto))

	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
		}
		for n := range a {
			if math.Float64bits(a[n]) != math.Float64bits(b[n]) {
				t.Fatalf("%s[%d] = %v, want %v", what, n, a[n], b[n])
			}
		}
	}
	same("lambda_m", []float64{got.lambda}, []float64{want.lambda})
	same("field", got.field, want.field)
	same("h_kl", []float64{got.hkl}, []float64{want.hkl})
	same("sweep", got.sweep, want.sweep)
	if !math.IsInf(got.sweep[len(got.sweep)-1], 1) {
		t.Fatalf("beyond-limit sweep point = %v, want +Inf", got.sweep[len(got.sweep)-1])
	}
	for c := range want.cols {
		same("HColumns", got.cols[c], want.cols[c])
	}

	if n := in.Hits(faults.SiteSMWSetup); n != 1 {
		t.Fatalf("SMW setup attempted %d times, want 1", n)
	}
	counters := r.Snapshot().Counters
	if n := counters["core.system.reusable_setup_failures"]; n != 1 {
		t.Fatalf("core.system.reusable_setup_failures = %d, want 1", n)
	}
	for _, name := range []string{"thermal.reusable.setups", "thermal.reusable.smw_hits",
		"thermal.reusable.near_limit", "thermal.reusable.fallbacks"} {
		if n := counters[name]; n != 0 {
			t.Fatalf("%s = %d on a direct-only solver, want 0", name, n)
		}
	}
}

// TestChaosConjectureCancel cancels a Conjecture-1 campaign from inside
// a pool task and checks the partial report plus the typed error come
// back instead of a hang or a fabricated full count.
func TestChaosConjectureCancel(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults.Install(faults.New(8).Arm(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.KindCall, OnHit: 5, Call: cancel,
		}))
		defer faults.Uninstall()
		rep, err := core.VerifyConjecture1Ctx(ctx, rand.New(rand.NewSource(9)), core.ConjectureOptions{
			Matrices: 20, MaxOrder: 6, Parallel: 1,
		})
		if !errors.Is(err, tecerr.ErrCancelled) {
			t.Fatalf("mid-campaign cancel surfaced as %v, want CodeCancelled", err)
		}
		if rep.Matrices == 0 || rep.Matrices >= 20 {
			t.Fatalf("partial report covers %d matrices, want a strict nonzero subset of 20", rep.Matrices)
		}
		if rep.Violations != 0 {
			t.Fatalf("partial report fabricated %d violations", rep.Violations)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faults.Install(faults.New(8).Arm(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.KindCall, OnHit: 5, Call: cancel,
		}))
		defer faults.Uninstall()
		rep, err := core.VerifyConjecture1Ctx(ctx, rand.New(rand.NewSource(9)), core.ConjectureOptions{
			Matrices: 64, MaxOrder: 6, Parallel: 0,
		})
		// Workers race the cancel: either the typed error surfaces with a
		// partial count, or every trial beat it and the report is full.
		if err != nil && !errors.Is(err, tecerr.ErrCancelled) {
			t.Fatalf("mid-campaign cancel surfaced as %v, want CodeCancelled", err)
		}
		if err == nil && rep.Matrices != 64 {
			t.Fatalf("nil error with %d of 64 matrices: partial report passed off as complete", rep.Matrices)
		}
		if rep.Violations != 0 {
			t.Fatalf("report fabricated %d violations", rep.Violations)
		}
	})
}
