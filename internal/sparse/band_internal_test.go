package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/tecerr"
)

func TestBandCholeskySolvesGrid(t *testing.T) {
	a := gridLaplacian(15, 10)
	rng := rand.New(rand.NewSource(11))
	want := make([]float64, a.Rows())
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := a.MulVec(want)
	c, err := NewBandCholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("Solve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBandCholeskyIndefinite(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddSym(0, 1, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewBandCholesky(b.Build(), nil); !errors.Is(err, ErrNotPositiveDefiniteBand) {
		t.Fatalf("err = %v, want not-PD", err)
	}
	if _, err := NewBandCholesky(gridLaplacian(4, 4), nil); err != nil {
		t.Errorf("SPD grid: %v", err)
	}
}

func TestBandCholeskyNonSquare(t *testing.T) {
	if _, err := NewBandCholesky(NewBuilder(2, 3).Build(), nil); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := NewBandCholesky(gridLaplacian(2, 2), []int{1, 0}); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("short permutation: err = %v, want CodeInvalidInput", err)
	}
}

// A wrong-length rhs must be a typed tecerr.CodeInvalidInput error, not
// a panic.
func TestBandCholeskyRhsLenTypedError(t *testing.T) {
	c, err := NewBandCholesky(gridLaplacian(3, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve([]float64{1})
	if x != nil {
		t.Error("Solve returned a vector alongside the error")
	}
	if !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Errorf("Solve err = %v, want CodeInvalidInput", err)
	}
}

func TestBandCholeskyDiagonalMatrix(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 4)
	b.Add(2, 2, 8)
	c, err := NewBandCholesky(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.l) != 3 || len(c.lt) != 3 {
		t.Fatalf("envelope holds %d and %d entries, want the 3 pivots", len(c.l), len(c.lt))
	}
	got, err := c.Solve([]float64{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Abs(v-1) > 1e-15 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}

// Property: BandCholesky agrees with CG on random SPD systems, with and
// without RCM preordering.
func TestBandCholeskyMatchesCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		a := randomSPD(rng, n, 0.25)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cg, err := SolveCG(a, b, CGOptions{Tol: 1e-13})
		if err != nil {
			return false
		}
		direct, err := NewBandCholesky(a, nil)
		if err != nil {
			return false
		}
		x, err := direct.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-cg.X[i]) > 1e-6*(1+math.Abs(cg.X[i])) {
				return false
			}
		}
		// RCM-permuted variant.
		perm := RCM(a)
		dp, err := NewBandCholesky(a, perm)
		if err != nil {
			return false
		}
		xpp, err := dp.Solve(PermuteVec(perm, b))
		if err != nil {
			return false
		}
		xp := PermuteVec(InvertPerm(perm), xpp)
		for i := range xp {
			if math.Abs(xp[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// RCM should shrink the bandwidth and the stored factor on scrambled
// grids.
func TestBandCholeskyRCMShrinksBandwidth(t *testing.T) {
	a := gridLaplacian(20, 20)
	rng := rand.New(rand.NewSource(13))
	scrambled := permute(a, rng.Perm(a.Rows()))
	perm := RCM(scrambled)
	if after, before := Bandwidth(permute(scrambled, perm)), Bandwidth(scrambled); after >= before {
		t.Fatalf("RCM bandwidth %d >= naive %d", after, before)
	}
	direct, err := NewBandCholesky(scrambled, perm)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewBandCholesky(scrambled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.l) >= len(naive.l) {
		t.Fatalf("RCM envelope %d >= naive %d", len(direct.l), len(naive.l))
	}
}

func TestBandCholeskySolveUnitsOutOfRange(t *testing.T) {
	c, err := NewBandCholesky(gridLaplacian(4, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{-1}, {0, 16}, {3, 99, 1}} {
		if _, err := c.SolveUnits(bad); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("SolveUnits(%v) err = %v, want CodeInvalidInput", bad, err)
		}
	}
}
