package thermal

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// testReusable builds a reusable system over the default package with a
// synthetic mixed-sign Seebeck-like diagonal on a few TEC-adjacent
// nodes, scaled so the runaway limit is finite and well inside the
// test's current range.
func testReusable(t *testing.T) (*ReusableSystem, *sparse.CSR, []float64, []float64) {
	t.Helper()
	_, g, rhs := testPackage(t)
	d := make([]float64, g.Rows())
	// Hot rows pump heat in (+), cold rows pump it out (-): the same
	// signature core.Array writes, without needing a deployment.
	for _, k := range []int{10, 25, 40, 55} {
		d[k] = 0.08
		d[k+1] = -0.05
	}
	rs, err := NewReusableSystem(g, d, nil)
	if err != nil {
		t.Fatalf("NewReusableSystem: %v", err)
	}
	return rs, g, d, rhs
}

// regimeCounters installs a fresh obs registry for the test and returns
// it, so a test can read which regime served each solve.
func regimeCounters(t *testing.T) *obs.Registry {
	t.Helper()
	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	t.Cleanup(func() { obs.SetGlobal(prev) })
	return r
}

// wantRegimes checks the SMW-hit, near-limit and fallback counters.
func wantRegimes(t *testing.T, r *obs.Registry, smw, near, fallback uint64) {
	t.Helper()
	for name, want := range map[string]uint64{
		"thermal.reusable.smw_hits":   smw,
		"thermal.reusable.near_limit": near,
		"thermal.reusable.fallbacks":  fallback,
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// directAt is the reference: refactor the shifted matrix and solve.
func directAt(t *testing.T, g *sparse.CSR, d []float64, i float64, rhs []float64) []float64 {
	t.Helper()
	f, err := Factor(g.AddScaledDiag(-i, d), nil)
	if err != nil {
		t.Fatalf("direct factorization at i=%g: %v", i, err)
	}
	x, err := f.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestReusableMatchesDirectAcrossCurrents(t *testing.T) {
	rs, g, d, rhs := testReusable(t)
	lam := rs.Lambda()
	if math.IsInf(lam, 1) || lam <= 0 {
		t.Fatalf("lambda = %v, want finite positive", lam)
	}
	if rs.Rank() != 8 {
		t.Fatalf("rank = %d, want 8", rs.Rank())
	}
	r := regimeCounters(t)
	ctx := context.Background()
	fracs := []float64{0, 0.1, 0.5, 0.9, 0.999}
	for _, frac := range fracs {
		i := frac * lam
		x, err := rs.SolveAtCurrent(ctx, i, rhs)
		if err != nil {
			t.Fatalf("SolveAtCurrent(%.3g*lambda): %v", frac, err)
		}
		want := directAt(t, g, d, i, rhs)
		for k := range want {
			if math.Abs(x[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("i=%.3g*lambda node %d: smw %v, direct %v", frac, k, x[k], want[k])
			}
		}
	}
	wantRegimes(t, r, uint64(len(fracs)), 0, 0)
}

// Inside the near-limit window the solve must come from the memoized
// direct factorization (the authority on ErrNotPD there) and still
// match a fresh direct solve exactly.
func TestReusableNearLimitWindow(t *testing.T) {
	rs, g, d, rhs := testReusable(t)
	r := regimeCounters(t)
	i := rs.Lambda() * (1 - 1e-7) // inside the 1e-6 relative window
	x, err := rs.SolveAtCurrent(context.Background(), i, rhs)
	if err != nil {
		t.Fatalf("near-limit solve: %v", err)
	}
	want := directAt(t, g, d, i, rhs)
	for k := range want {
		if !num.ExactEqual(x[k], want[k]) {
			t.Fatalf("memoized near-limit solve differs at node %d", k)
		}
	}
	// Second solve at the same current reuses the memo (same backing
	// factorization, identical output).
	x2, err := rs.SolveAtCurrent(context.Background(), i, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range x {
		if !num.ExactEqual(x[k], x2[k]) {
			t.Fatal("memoized factorization is not deterministic")
		}
	}
	wantRegimes(t, r, 0, 2, 0)
}

func TestReusableBeyondLimit(t *testing.T) {
	rs, _, _, rhs := testReusable(t)
	i := rs.Lambda() * (1 + 1e-3)
	if _, err := rs.SolveAtCurrent(context.Background(), i, rhs); !errors.Is(err, ErrNotPD) {
		t.Fatalf("beyond-limit err = %v, want ErrNotPD", err)
	}
	if rs.PD(i) {
		t.Fatal("PD true beyond lambda")
	}
	if !rs.PD(0.5 * rs.Lambda()) {
		t.Fatal("PD false below lambda")
	}
}

// A tripped conditioning guard degrades the solve to the direct
// factorization of the shifted matrix: bitwise the direct answer,
// counted as a fallback and not as a near-limit solve.
func TestReusableGuardFallbackDegraded(t *testing.T) {
	rs, g, d, rhs := testReusable(t)
	r := regimeCounters(t)
	i := 0.4 * rs.Lambda()
	want := directAt(t, g, d, i, rhs)
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteSMWGuard,
		Kind: faults.KindNaN,
	}))
	defer faults.Uninstall()

	for pass := 0; pass < 2; pass++ { // the second solve reuses the memo
		x, err := rs.SolveAtCurrent(context.Background(), i, rhs)
		if err != nil {
			t.Fatalf("fallback solve: %v", err)
		}
		for k := range want {
			if math.Float64bits(x[k]) != math.Float64bits(want[k]) {
				t.Fatalf("pass %d node %d: fallback %v, direct %v", pass, k, x[k], want[k])
			}
		}
	}
	wantRegimes(t, r, 0, 0, 2)
	if got := r.Counter("sparse.smw.guard_trips").Value(); got != 2 {
		t.Fatalf("guard trips = %d, want 2", got)
	}
}

// EntryAtCurrent must give, in every regime, the entry of
// SolveAtCurrent's solution for the unit vector, or the same error, and
// count its solves in the same regime: bitwise at i = 0 and in the
// direct regimes, and to 1e-12 relative to the column's largest entry
// in the SMW regime, where the pair read and the corrected field sum
// the same poles in different orders. The column alternates between a
// plain node and a hot TEC row, so the pair memo is replaced at every
// change of column.
func TestReusableEntryMatchesSolveBitwise(t *testing.T) {
	rs, _, d, _ := testReusable(t)
	lam := rs.Lambda()
	n := len(d)
	cols := []int{3, 25}
	if d[cols[1]] <= 0 {
		t.Fatalf("d[%d] = %v: the second column must be a hot TEC row", cols[1], d[cols[1]])
	}
	ks := []int{0, 3, 11, 25, 26, n - 1}
	solves := uint64(2 * len(cols) * (1 + len(ks)))
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		i     float64
		guard bool // arm the conditioning-guard fault
		// counter is the regime counter every solve lands in.
		counter string
		// tol is the allowed difference relative to the column's
		// largest entry; 0 is bitwise.
		tol float64
	}{
		{"zero", 0, false, "thermal.reusable.smw_hits", 0},
		{"smw", 0.3 * lam, false, "thermal.reusable.smw_hits", 1e-12},
		{"smw-edge", 0.999 * lam, false, "thermal.reusable.smw_hits", 1e-12},
		{"near-limit", lam * (1 - 1e-7), false, "thermal.reusable.near_limit", 0},
		{"guard-trip", 0.4 * lam, true, "thermal.reusable.fallbacks", 0},
		{"beyond-limit", lam * (1 + 1e-3), false, "thermal.reusable.beyond_limit", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := regimeCounters(t)
			if tc.guard {
				faults.Install(faults.New(1).Arm(faults.Rule{
					Site: faults.SiteSMWGuard,
					Kind: faults.KindNaN,
				}))
				defer faults.Uninstall()
			}
			for pass := 0; pass < 2; pass++ {
				for _, l := range cols {
					e := make([]float64, n)
					e[l] = 1
					want, werr := rs.SolveAtCurrent(ctx, tc.i, e)
					var scale float64
					for _, w := range want {
						scale = math.Max(scale, math.Abs(w))
					}
					for _, k := range ks {
						got, err := rs.EntryAtCurrent(ctx, tc.i, k, l)
						if werr != nil {
							if !errors.Is(err, werr) {
								t.Fatalf("h(%d, %d): err = %v, want %v", k, l, err, werr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("h(%d, %d): %v", k, l, err)
						}
						if num.IsZero(tc.tol) && math.Float64bits(got) != math.Float64bits(want[k]) ||
							math.Abs(got-want[k]) > tc.tol*scale {
							t.Fatalf("pass %d h(%d, %d): entry %v, solve %v", pass, k, l, got, want[k])
						}
					}
				}
			}
			if got := r.Counter(tc.counter).Value(); got != solves {
				t.Errorf("%s = %d, want %d", tc.counter, got, solves)
			}
		})
	}
}

// The entry data is memoized for the last (k, l) read: a repeat of the
// pair hits, a change of k or l replaces it, and the solve span says
// which.
func TestReusableEntryPairMemo(t *testing.T) {
	rs, _, _, _ := testReusable(t)
	r := regimeCounters(t)
	r.EnableTraceOpts(obs.TraceOptions{})
	ctx := context.Background()
	i := 0.5 * rs.Lambda()
	for _, kl := range [][2]int{{0, 3}, {0, 3}, {0, 25}, {7, 25}, {7, 25}, {0, 3}} {
		if _, err := rs.EntryAtCurrent(ctx, i, kl[0], kl[1]); err != nil {
			t.Fatal(err)
		}
	}
	if p := rs.pair.Load(); p == nil || p.k != 0 || p.l != 3 {
		t.Fatalf("memo holds %+v, want pair (0, 3)", p)
	}
	if got := r.Counter("sparse.band.solves").Value(); got != 4 {
		t.Fatalf("%d band solves, want 4 (one per memo miss)", got)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var memo []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if j := strings.Index(line, `{"k":"pair_memo","v":"`); j >= 0 {
			v := line[j+len(`{"k":"pair_memo","v":"`):]
			memo = append(memo, v[:strings.IndexByte(v, '"')])
		}
	}
	if want := []string{"false", "true", "false", "false", "true", "false"}; strings.Join(memo, ",") != strings.Join(want, ",") {
		t.Fatalf("pair_memo annotations %v, want %v", memo, want)
	}
}

// LoadAtCurrent reads the load b + c*1_U in every regime: to 1e-9 of
// the direct solve in the SMW regime (a rows read bitwise those rows of
// the field), bitwise the direct factorization's answer in the
// near-limit window and on a guard trip, ErrNotPD beyond the limit.
func TestReusableLoadMatchesDirect(t *testing.T) {
	rs, g, d, b := testReusable(t)
	load, err := rs.Form(b)
	if err != nil {
		t.Fatal(err)
	}
	lam, c := rs.Lambda(), 0.7
	rhs := append([]float64(nil), b...)
	for k, v := range d {
		if !num.IsZero(v) {
			rhs[k] += c
		}
	}
	rows := []int{40, 3, 41, 0}
	ctx := context.Background()
	for _, tc := range []struct {
		name           string
		i              float64
		guard, bitwise bool // arm the guard fault; want the direct bits
	}{
		{"zero", 0, false, false}, {"smw", 0.5 * lam, false, false}, {"smw-edge", 0.999 * lam, false, false},
		{"near-limit", lam * (1 - 1e-7), false, true}, {"guard-trip", 0.4 * lam, true, true},
	} {
		if tc.guard {
			faults.Install(faults.New(1).Arm(faults.Rule{Site: faults.SiteSMWGuard, Kind: faults.KindNaN}))
		}
		field, part := make([]float64, len(b)), make([]float64, len(rows))
		ferr := rs.LoadAtCurrent(ctx, tc.i, c, load, func() []float64 { return rhs }, nil, field)
		perr := rs.LoadAtCurrent(ctx, tc.i, c, load, func() []float64 { return rhs }, rows, part)
		faults.Uninstall()
		if ferr != nil || perr != nil {
			t.Fatalf("%s: field %v, rows %v", tc.name, ferr, perr)
		}
		want := directAt(t, g, d, tc.i, rhs)
		for k, w := range want {
			if math.Abs(field[k]-w) > 1e-9*(1+math.Abs(w)) || tc.bitwise && math.Float64bits(field[k]) != math.Float64bits(w) {
				t.Fatalf("%s node %d: load read %v, direct %v", tc.name, k, field[k], w)
			}
		}
		for r, k := range rows {
			if math.Float64bits(part[r]) != math.Float64bits(field[k]) {
				t.Fatalf("%s row %d: rows read %v, field %v", tc.name, k, part[r], field[k])
			}
		}
	}
	if err := rs.LoadAtCurrent(ctx, lam*(1+1e-3), c, load, func() []float64 { return rhs }, nil, make([]float64, len(b))); !errors.Is(err, ErrNotPD) {
		t.Fatalf("beyond the limit: err = %v, want ErrNotPD", err)
	}
}

func TestReusableZeroRankAndZeroCurrent(t *testing.T) {
	_, g, rhs := testPackage(t)
	rs, err := NewReusableSystem(g, make([]float64, g.Rows()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rank() != 0 || !math.IsInf(rs.Lambda(), 1) {
		t.Fatalf("rank %d lambda %v, want 0 and +Inf", rs.Rank(), rs.Lambda())
	}
	r := regimeCounters(t)
	want := directAt(t, g, make([]float64, g.Rows()), 0, rhs)
	currents := []float64{0, 2.5} // i is irrelevant when D = 0
	for _, i := range currents {
		x, err := rs.SolveAtCurrent(context.Background(), i, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Abs(x[k]-want[k]) > 1e-12*(1+math.Abs(want[k])) {
				t.Fatalf("zero-rank solve differs at node %d", k)
			}
		}
	}
	wantRegimes(t, r, uint64(len(currents)), 0, 0)
}

func TestReusableInvalidInput(t *testing.T) {
	rs, _, _, rhs := testReusable(t)
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := rs.SolveAtCurrent(ctx, bad, rhs); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("current %v: err = %v, want CodeInvalidInput", bad, err)
		}
	}
	if _, err := rs.SolveAtCurrent(ctx, 0.1, rhs[:3]); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("short rhs err = %v, want CodeInvalidInput", err)
	}
	n := len(rhs)
	for _, kl := range [][2]int{{-1, 0}, {0, -1}, {n, 0}, {0, n}} {
		if _, err := rs.EntryAtCurrent(ctx, 0.1, kl[0], kl[1]); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("entry %v err = %v, want CodeInvalidInput", kl, err)
		}
	}
	if _, err := rs.EntryAtCurrent(ctx, math.NaN(), 0, 0); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("entry at NaN current err = %v, want CodeInvalidInput", err)
	}
	if _, err := NewReusableSystem(rs.g, make([]float64, 2), nil); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("mismatched d err = %v, want CodeInvalidInput", err)
	}
}

// Factorization.SolveUnits is the blocked W = G^{-1} U of the SMW
// setup: each column must be bitwise the RCM-permuted Solve of its unit
// vector, in the caller's order.
func TestFactorizationSolveUnitsMatchesSolveBitwise(t *testing.T) {
	_, g, _ := testPackage(t)
	f, err := Factor(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Rows()
	idx := []int{n - 1, 7, 300, 0, 41, 40, 7}
	for k := 90; k < 90+20*3; k += 3 {
		idx = append(idx, k)
	}
	cols, err := f.SolveUnits(idx)
	if err != nil {
		t.Fatal(err)
	}
	e := make([]float64, n)
	for j, k := range idx {
		e[k] = 1
		want, err := f.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		e[k] = 0
		for i := range want {
			if math.Float64bits(cols[j][i]) != math.Float64bits(want[i]) {
				t.Fatalf("column %d (e_%d) node %d: SolveUnits %v, Solve %v", j, k, i, cols[j][i], want[i])
			}
		}
	}
	if _, err := f.SolveUnits([]int{3, n}); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("out-of-range index: err = %v, want CodeInvalidInput", err)
	}
}
