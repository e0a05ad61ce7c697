package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/tecerr"
)

// smwDirect solves (a - i*diag(d)) x = b by refactoring the shifted
// matrix — the reference the SMW fast path must reproduce.
func smwDirect(t *testing.T, a *CSR, d []float64, i float64, b []float64) []float64 {
	t.Helper()
	c, err := NewBandCholesky(a.AddScaledDiag(-i, d))
	if err != nil {
		t.Fatalf("direct factorization at shift %g: %v", i, err)
	}
	x, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// newGridSMW builds a grid Laplacian with a mixed-sign low-rank update
// (positive entries model Seebeck pumping on hot rows, negative on cold
// rows) and the SMW correction data over its band Cholesky.
func newGridSMW(t *testing.T) (*CSR, []float64, *SMW) {
	t.Helper()
	a := gridLaplacian(9, 7)
	d := make([]float64, a.Rows())
	d[3] = 0.04
	d[17] = 0.03
	d[17+9] = -0.03
	d[40] = 0.05
	d[40+9] = -0.02
	base, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSMW(d, base.Solve)
	if err != nil {
		t.Fatal(err)
	}
	return a, d, s
}

func TestSMWMatchesDirectAcrossShifts(t *testing.T) {
	a, d, s := newGridSMW(t)
	if s.Rank() != 5 {
		t.Fatalf("rank = %d, want 5", s.Rank())
	}
	lam := s.Lambda()
	if math.IsInf(lam, 1) || lam <= 0 {
		t.Fatalf("lambda = %v, want finite positive", lam)
	}
	base, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, a.Rows())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999, -0.5} {
		i := frac * lam
		y, err := base.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]float64, len(y))
		for k := range y {
			z, err := s.Pair(k, y)
			if err != nil {
				t.Fatalf("Pair(%d): %v", k, err)
			}
			if entries[k], err = s.Entry(i, y[k], z); err != nil {
				t.Fatalf("Entry at i=%g, k = %d: %v", i, k, err)
			}
		}
		if err := s.Correct(i, y); err != nil {
			t.Fatalf("Correct at i=%g (%.3g*lambda): %v", i, frac, err)
		}
		scale := normInf(y)
		for k := range y {
			if math.Abs(entries[k]-y[k]) > 1e-12*scale {
				t.Fatalf("shift %.3g*lambda node %d: pair read %v, Correct %v", frac, k, entries[k], y[k])
			}
		}
		want := smwDirect(t, a, d, i, b)
		for k := range want {
			if math.Abs(y[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("shift %.3g*lambda node %d: smw %v, direct %v", frac, k, y[k], want[k])
			}
		}
	}
}

// The spectral limit 1/mu_max must agree with the Cholesky breakdown
// boundary of the shifted matrix (Theorem 1).
func TestSMWLambdaMatchesBreakdown(t *testing.T) {
	a, d, s := newGridSMW(t)
	lam := s.Lambda()
	if !num.IsFinite(lam) || lam <= 0 {
		t.Fatalf("lambda = %v, want finite positive", lam)
	}
	if _, err := NewBandCholesky(a.AddScaledDiag(-lam*(1-1e-3), d)); err != nil {
		t.Fatalf("shifted matrix below lambda not PD: %v", err)
	}
	if _, err := NewBandCholesky(a.AddScaledDiag(-lam*(1+1e-3), d)); err == nil {
		t.Fatal("shifted matrix beyond lambda still factored")
	}
}

// A shift inside the conditioning guard of 1/mu_j must refuse the
// correction with the typed sentinel and leave the vector untouched.
func TestSMWGuardTripsNearSingularity(t *testing.T) {
	_, _, s := newGridSMW(t)
	i := s.Lambda() * (1 - 1e-9)
	y := make([]float64, s.n)
	for k := range y {
		y[k] = float64(k)
	}
	before := append([]float64(nil), y...)
	z, err := s.Pair(3, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Entry(i, y[3], z); !errors.Is(err, ErrSMWIllConditioned) {
		t.Fatalf("Entry err = %v, want ErrSMWIllConditioned", err)
	}
	err = s.Correct(i, y)
	if !errors.Is(err, ErrSMWIllConditioned) {
		t.Fatalf("err = %v, want ErrSMWIllConditioned", err)
	}
	if tecerr.CodeOf(err) != tecerr.CodeDiverged {
		t.Fatalf("code = %v, want CodeDiverged", tecerr.CodeOf(err))
	}
	for k := range y {
		if !num.ExactEqual(y[k], before[k]) {
			t.Fatal("guard trip mutated the vector")
		}
	}
}

// Fault injection at the guard site forces the trip at a perfectly
// well-conditioned shift, the hook chaos tests use to exercise the
// direct fallback.
func TestSMWGuardFaultInjection(t *testing.T) {
	_, _, s := newGridSMW(t)
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteSMWGuard,
		Kind: faults.KindNaN,
	}))
	defer faults.Uninstall()
	y := make([]float64, s.n)
	y[0] = 1
	if err := s.Correct(0.1*s.Lambda(), y); !errors.Is(err, ErrSMWIllConditioned) {
		t.Fatalf("err = %v, want ErrSMWIllConditioned under injected NaN margin", err)
	}
	z, err := s.Pair(0, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Entry(0.1*s.Lambda(), y[0], z); !errors.Is(err, ErrSMWIllConditioned) {
		t.Fatalf("Entry err = %v, want ErrSMWIllConditioned under injected NaN margin", err)
	}
}

func TestSMWZeroSupport(t *testing.T) {
	a := gridLaplacian(4, 4)
	base, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSMW(make([]float64, a.Rows()), base.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 0 {
		t.Fatalf("rank = %d, want 0", s.Rank())
	}
	if !math.IsInf(s.Lambda(), 1) {
		t.Fatalf("lambda = %v, want +Inf", s.Lambda())
	}
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	before := append([]float64(nil), y...)
	for k := range y {
		z, err := s.Pair(k, y)
		if err != nil || len(z) != 0 {
			t.Fatalf("zero-support Pair(%d) = %v, %v, want no weights", k, z, err)
		}
		if x, err := s.Entry(3.5, y[k], z); err != nil || !num.ExactEqual(x, y[k]) {
			t.Fatalf("zero-support Entry(%d) = %v, %v, want %v", k, x, err, y[k])
		}
	}
	if err := s.Correct(3.5, y); err != nil {
		t.Fatal(err)
	}
	for k := range y {
		if !num.ExactEqual(y[k], before[k]) {
			t.Fatal("zero-support Correct is not the identity")
		}
	}
}

func TestSMWInvalidInput(t *testing.T) {
	_, _, s := newGridSMW(t)
	y := make([]float64, s.n)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Correct(bad, y); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("Correct(%v) err = %v, want CodeInvalidInput", bad, err)
		}
	}
	if err := s.Correct(0.5, make([]float64, 3)); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("short vector err = %v, want CodeInvalidInput", err)
	}
	z, err := s.Pair(0, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Entry(math.NaN(), y[0], z); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("Entry(NaN) err = %v, want CodeInvalidInput", err)
	}
	if _, err := s.Entry(0.5, y[0], z[1:]); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("Entry short weights err = %v, want CodeInvalidInput", err)
	}
	if _, err := s.Pair(0, make([]float64, 3)); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("Pair short vector err = %v, want CodeInvalidInput", err)
	}
	for _, k := range []int{-1, s.n} {
		if _, err := s.Pair(k, y); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("Pair entry %d err = %v, want CodeInvalidInput", k, err)
		}
	}
}

// Property: on random SPD systems with random mixed-sign supports, the
// SMW correction matches a direct refactorization of the shifted matrix
// to 1e-9 relative at shifts spanning the PD interval.
func TestSMWMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		a := randomSPD(rng, n, 0.2)
		d := make([]float64, n)
		for j := 0; j < 1+rng.Intn(6); j++ {
			d[rng.Intn(n)] = 0.5 * rng.NormFloat64()
		}
		base, err := NewBandCholesky(a)
		if err != nil {
			return false
		}
		s, err := NewSMW(d, base.Solve)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for _, frac := range []float64{0.2, 0.7, 0.95} {
			shift := frac // lambda can be +Inf (all-negative support)
			if lam := s.Lambda(); !math.IsInf(lam, 1) {
				shift = frac * lam
			}
			y, err := base.Solve(b)
			if err != nil {
				return false
			}
			if err := s.Correct(shift, y); err != nil {
				return false
			}
			c, err := NewBandCholesky(a.AddScaledDiag(-shift, d))
			if err != nil {
				return false
			}
			want, err := c.Solve(b)
			if err != nil {
				return false
			}
			for k := range want {
				if math.Abs(y[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzSMWGuard drives the capacitance-matrix guard with arbitrary
// shifts and support values: Correct must never panic, must reject
// non-finite shifts as invalid input, and on success must produce the
// direct solution to the accuracy contract whenever the shifted matrix
// still factors.
func FuzzSMWGuard(f *testing.F) {
	f.Add(0.5, 0.04, -0.03)
	f.Add(1e12, 0.04, 0.05)
	f.Add(-3.0, -0.01, -0.02)
	f.Add(math.Inf(1), 0.04, -0.03)
	f.Add(math.NaN(), 0.0, 0.0)
	a := gridLaplacian(5, 4)
	n := a.Rows()
	f.Fuzz(func(t *testing.T, shift, da, db float64) {
		d := make([]float64, n)
		d[3], d[11] = da, db
		base, err := NewBandCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSMW(d, base.Solve)
		if err != nil {
			return // degenerate support is allowed to fail setup
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		y, err := base.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		cerr := s.Correct(shift, y)
		if !isFinite(shift) {
			if !errors.Is(cerr, tecerr.ErrInvalidInput) {
				t.Fatalf("non-finite shift %v: err = %v, want CodeInvalidInput", shift, cerr)
			}
			return
		}
		if cerr != nil {
			if !errors.Is(cerr, ErrSMWIllConditioned) {
				t.Fatalf("finite shift %v: unexpected error %v", shift, cerr)
			}
			return
		}
		for k, v := range y {
			if math.IsNaN(v) {
				t.Fatalf("shift %v: NaN at node %d after successful Correct", shift, k)
			}
		}
		c, err := NewBandCholesky(a.AddScaledDiag(-shift, d))
		if err != nil {
			return // guard accepted a shift outside the PD interval? only
			// possible beyond lambda, where Correct still computed the
			// (indefinite) algebraic solution; no accuracy contract there.
		}
		want, err := c.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Abs(y[k]-want[k]) > 1e-6*(1+math.Abs(want[k])) {
				t.Fatalf("shift %v node %d: smw %v, direct %v", shift, k, y[k], want[k])
			}
		}
	})
}

// normInf returns max_k |x_k|.
func normInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// isFinite mirrors num.IsFinite without importing it into the fuzz path.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// The NewSMW adapter (one Solve per unit column) and the blocked
// construction (one SolveUnits call) run the same dense stage on the
// same W, so every piece of the correction data is bitwise equal.
func TestNewSMWAdapterMatchesBlockedBitwise(t *testing.T) {
	a := gridLaplacian(11, 8)
	n := a.Rows()
	rng := rand.New(rand.NewSource(8))
	d := make([]float64, n)
	for _, k := range rng.Perm(n)[:unitBlock+7] {
		d[k] = 0.05 * rng.NormFloat64()
	}
	base, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := NewSMW(d, base.Solve)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := NewSMWUnits(d, base.SolveUnits)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: length %d vs %d", what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s[%d]: adapter %v, blocked %v", what, i, x[i], y[i])
			}
		}
	}
	same("mu", adapted.mu, blocked.mu)
	same("p2", adapted.p2, blocked.p2)
	same("ones.y", adapted.ones.y, blocked.ones.y)
	same("ones.p", adapted.ones.p, blocked.ones.p)
	for j := range adapted.w {
		same("w", adapted.w[j], blocked.w[j])
	}
}

// A failing or malformed column solve is a typed setup error, and a
// non-finite update entry is invalid input.
func TestNewSMWUnitsSetupErrors(t *testing.T) {
	d := []float64{0, 0.5, 0, -0.25}
	boom := tecerr.New(tecerr.CodeNotPD, "test", "boom")
	if _, err := NewSMWUnits(d, func([]int) ([][]float64, error) { return nil, boom }); tecerr.CodeOf(err) != tecerr.CodeNotPD || !errors.Is(err, boom) {
		t.Errorf("failing solve: err = %v, want wrapped CodeNotPD", err)
	}
	short := func(idx []int) ([][]float64, error) { return make([][]float64, len(idx)-1), nil }
	if _, err := NewSMWUnits(d, short); tecerr.CodeOf(err) != tecerr.CodeInternal {
		t.Errorf("missing column: err = %v, want CodeInternal", err)
	}
	ragged := func(idx []int) ([][]float64, error) { return [][]float64{make([]float64, 4), make([]float64, 3)}, nil }
	if _, err := NewSMWUnits(d, ragged); tecerr.CodeOf(err) != tecerr.CodeInternal {
		t.Errorf("short column: err = %v, want CodeInternal", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewSMW([]float64{0, bad}, nil); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("d entry %v: err = %v, want CodeInvalidInput", bad, err)
		}
	}
}
