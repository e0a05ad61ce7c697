package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"tecopt/internal/engine"
	"tecopt/internal/faults"
	"tecopt/internal/tecerr"
	"tecopt/internal/thermal"
)

func TestRunawayLimitNoTEC(t *testing.T) {
	// Contract: "no runaway limit" is an answer (lambda_m = +Inf), not
	// an error. The old API returned a meaningful value alongside
	// ErrNoRunawayLimit, forcing every caller to remember errors.Is.
	sys := mustSystem(t, smallConfig(), nil)
	if sys.HasRunawayLimit() {
		t.Fatal("passive system claims a runaway limit")
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatalf("err = %v, want nil (no-TEC is not a failure)", err)
	}
	if !math.IsInf(lambda, 1) {
		t.Fatalf("lambda = %v, want +Inf", lambda)
	}
}

func TestHasRunawayLimitWithTECs(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.HasRunawayLimit() {
		t.Fatal("deployed system reports no runaway limit")
	}
}

func TestRunawayLimitBoundary(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27, 28, 35, 36})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(lambda, 1) || lambda <= 0 {
		t.Fatalf("lambda = %v, want finite positive", lambda)
	}
	// Theorem 1: PD strictly below, not PD above.
	if _, err := sys.Factor(lambda * (1 - 1e-6)); err != nil {
		t.Errorf("G - iD not PD just below lambda_m: %v", err)
	}
	if _, err := sys.Factor(lambda * (1 + 1e-6)); err == nil {
		t.Error("G - iD still PD just above lambda_m")
	}
}

func TestRunawayLimitDecreasesWithMoreTECs(t *testing.T) {
	// More devices -> more negative-conductor mass -> earlier runaway.
	cfg := smallConfig()
	few, err := NewSystem(cfg, []int{27})
	if err != nil {
		t.Fatal(err)
	}
	lambdaFew, err := few.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	many, err := NewSystem(cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	lambdaMany, err := many.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lambdaMany >= lambdaFew {
		t.Fatalf("lambda_m(64 TECs) = %.2f >= lambda_m(1 TEC) = %.2f", lambdaMany, lambdaFew)
	}
}

func TestThermalRunawayDivergence(t *testing.T) {
	// Theorem 2: temperatures blow up as i -> lambda_m^-.
	sys, err := NewSystem(smallConfig(), []int{27, 28})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peakMid, _, _, err := sys.PeakAt(lambda * 0.5)
	if err != nil {
		t.Fatal(err)
	}
	peakNear, _, _, err := sys.PeakAt(lambda * (1 - 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if peakNear < 100*peakMid {
		t.Fatalf("no divergence near lambda_m: %.3g vs %.3g K", peakNear, peakMid)
	}
}

func TestRunawayMode(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27, 28})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mode, err := sys.RunawayMode(lambda)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := 0.0
	for _, v := range mode {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if math.Abs(maxAbs-1) > 1e-9 {
		t.Fatalf("mode not normalized: max |v| = %v", maxAbs)
	}
	// No-TEC systems have no mode.
	passive := mustSystem(t, smallConfig(), nil)
	if _, err := passive.RunawayMode(math.Inf(1)); err == nil {
		t.Error("RunawayMode accepted infinite lambda")
	}
}

func TestHklProperties(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27, 28})
	if err != nil {
		t.Fatal(err)
	}
	k := sys.PN.SilNode[27]
	l := sys.Array.Hot[0]
	// Lemma 3: nonnegative entries of H.
	for _, i := range []float64{0, 2, 5} {
		v, err := sys.Hkl(i, k, l)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 {
			t.Fatalf("h_kl(%g) = %v < 0", i, v)
		}
		// Symmetry h_kl = h_lk.
		w, err := sys.Hkl(i, l, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-w) > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("h_kl != h_lk at i=%g: %v vs %v", i, v, w)
		}
	}
	// Theorem 3 (under Conjecture 1): convexity along i.
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0.0, lambda*0.9
	mid := (a + b) / 2
	ha, _ := sys.Hkl(a, k, l)
	hb, _ := sys.Hkl(b, k, l)
	hm, _ := sys.Hkl(mid, k, l)
	if hm > (ha+hb)/2+1e-9 {
		t.Fatalf("h_kl midpoint %v above chord %v (convexity violated)", hm, (ha+hb)/2)
	}
}

func TestHklSweepInfinityBeyondLimit(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := sys.PN.SilNode[27]
	vals, err := sys.HklSweep(context.Background(), k, k, []float64{0, lambda / 2, lambda * (1 - 1e-9), lambda * 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(vals[0], 1) || math.IsInf(vals[1], 1) {
		t.Fatal("finite currents produced infinite h_kk")
	}
	if !math.IsInf(vals[3], 1) {
		t.Fatalf("beyond-limit current gave finite h_kk = %v", vals[3])
	}
	// Figure 6 shape: h_kk may dip at moderate currents (that is the
	// useful cooling region) but must blow up approaching lambda_m.
	if !(vals[2] > 100*vals[0]) {
		t.Fatalf("h_kk near lambda_m (%v) does not diverge past h_kk(0)=%v", vals[2], vals[0])
	}
}

func TestHklSweepPropagatesModelErrors(t *testing.T) {
	// Regression: the sweep used to fold EVERY error into +Inf, so a
	// genuine model error (here: a node index out of range) was
	// indistinguishable from thermal runaway. Only not-PD currents may
	// read as +Inf; everything else must surface.
	sys, err := NewSystem(smallConfig(), []int{27})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.HklSweep(context.Background(), sys.NumNodes()+5, 0, []float64{0, 1}); err == nil {
		t.Fatal("out-of-range node k was silently reported as +Inf")
	}
	if _, err := sys.Hkl(1, 0, -1); err == nil {
		t.Fatal("Hkl accepted a negative node index")
	}
}

// A sweep stopped before point j, by cancellation or by an injected
// error, returns that error with exactly the j values it finished,
// each bitwise the single-point Hkl (+Inf for a point beyond lambda_m).
func TestHklSweepReturnsFinishedPrefix(t *testing.T) {
	sys := mustSystem(t, smallConfig(), []int{27})
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := sys.PN.SilNode[27]
	currents := []float64{0, 0.3 * lambda, 1.1 * lambda, 0.6 * lambda, lambda * (1 - 1e-7), 0.9 * lambda}
	want := make([]float64, len(currents))
	for p, i := range currents {
		if want[p], err = sys.Hkl(i, k, k); errors.Is(err, thermal.ErrNotPD) {
			want[p] = math.Inf(1)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	stopAt := func(j int, ctx context.Context, rule faults.Rule, wantErr error) {
		t.Helper()
		faults.Install(faults.New(1).Arm(rule))
		defer faults.Uninstall()
		got, err := sys.HklSweep(ctx, k, k, currents)
		if !errors.Is(err, wantErr) {
			t.Fatalf("stopped at point %d: err = %v, want %v", j, err, wantErr)
		}
		if len(got) != j {
			t.Fatalf("stopped at point %d: %d values, want %d", j, len(got), j)
		}
		for p := range got {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("stopped at point %d: value %d = %v, Hkl %v", j, p, got[p], want[p])
			}
		}
	}
	for j := range currents {
		ctx, cancel := context.WithCancel(context.Background())
		stopAt(j, ctx, faults.Rule{Site: faults.SiteSweepPoint, Kind: faults.KindCall, OnHit: uint64(j + 1), Call: cancel}, tecerr.ErrCancelled)
		cancel()
		stopAt(j, context.Background(), faults.Rule{Site: faults.SiteSweepPoint, Kind: faults.KindError, OnHit: uint64(j + 1)}, faults.ErrInjected)
	}
}

// Concurrent sweeps of two columns on one System replace each other's
// memoized base column all the time: every value must still be bitwise
// the serial sweep's on a System of its own.
func TestHklConcurrentSweepsMatchSerialBitwise(t *testing.T) {
	cfg := smallConfig()
	sites := []int{27, 28}
	sys := mustSystem(t, cfg, sites)
	lambda, err := sys.RunawayLimit(RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Points across the SMW regime, one in the near-limit window and one
	// beyond the limit.
	currents := make([]float64, 40)
	for i := range currents {
		currents[i] = 0.999 * lambda * float64(i) / float64(len(currents))
	}
	currents = append(currents, lambda*(1-1e-7), lambda*1.05)
	k := sys.PN.SilNode[27]
	cols := []int{sys.PN.SilNode[36], sys.Array.Hot[1]}
	ref := mustSystem(t, cfg, sites)
	want := make([][]float64, len(cols))
	for c, l := range cols {
		if want[c], err = ref.HklSweep(context.Background(), k, l, currents); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := sys.HklSweep(context.Background(), k, cols[c], currents)
				if err != nil {
					t.Error(err)
					return
				}
				for p := range got {
					if math.Float64bits(got[p]) != math.Float64bits(want[c][p]) {
						t.Errorf("column %d at i = %g: concurrent %v, serial %v", cols[c], currents[p], got[p], want[c][p])
						return
					}
				}
			}
		}(w % len(cols))
	}
	wg.Wait()
}

// HColumns corrects full columns after a band solve and Hkl reads one
// entry from pair weights: the two sum the same poles in different
// orders, so they agree to 1e-12 relative to the column's largest entry.
func TestHColumnsMatchHkl(t *testing.T) {
	sys, err := NewSystem(smallConfig(), []int{27})
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{sys.PN.SilNode[27], sys.Array.Hot[0], sys.Array.Cold[0]}
	h, err := sys.HColumns(2.0, cols, engine.Pool{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for idx, l := range cols {
		var scale float64
		for _, v := range h[idx] {
			scale = math.Max(scale, math.Abs(v))
		}
		for _, k := range []int{0, sys.PN.SilNode[5], sys.NumNodes() - 1} {
			want, err := sys.Hkl(2.0, k, l)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(h[idx][k]-want) > 1e-12*scale {
				t.Fatalf("H[%d][%d] = %v, want h_kl = %v", idx, k, h[idx][k], want)
			}
		}
	}
	if _, err := sys.HColumns(2.0, []int{-1}, engine.Serial); err == nil {
		t.Fatal("HColumns accepted an out-of-range column")
	}
}
