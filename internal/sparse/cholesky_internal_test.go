package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/tecerr"
)

// The tests below keep the names they had when the factor was an RCM
// envelope ("band") Cholesky; each checks the same property of the
// sparse factor.

// identityPerm is the permutation that leaves a matrix of order n as is.
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestBandCholeskySolvesGrid(t *testing.T) {
	a := gridLaplacian(15, 10)
	rng := rand.New(rand.NewSource(11))
	want := make([]float64, a.Rows())
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := a.MulVec(want)
	c, err := NewCholesky(a, MinDegree(a))
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

// An indefinite matrix, or a grid shifted past positive definiteness, is
// ErrNotPositiveDefinite (CodeNotPD) at every ordering; the grid itself
// factors.
func TestBandCholeskyIndefinite(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddSym(0, 1, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewCholesky(b.Build(), identityPerm(2)); !errors.Is(err, ErrNotPositiveDefinite) || tecerr.CodeOf(err) != tecerr.CodeNotPD {
		t.Fatalf("err = %v, want not-PD", err)
	}
	// The constant vector is an eigenvector of the grid Laplacian with
	// eigenvalue 0.01, its diagonal shift: shifted down by 1, the grid is
	// indefinite.
	grid := gridLaplacian(6, 5)
	ones := make([]float64, grid.Rows())
	for i := range ones {
		ones[i] = 1
	}
	rng := rand.New(rand.NewSource(4))
	for _, perm := range [][]int{MinDegree(grid), RCM(grid), identityPerm(grid.Rows()), rng.Perm(grid.Rows())} {
		if _, err := NewCholesky(grid, perm); err != nil {
			t.Errorf("SPD grid: %v", err)
		}
		if _, err := NewCholesky(grid.AddScaledDiag(-1, ones), perm); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Errorf("shifted grid: err = %v, want not-PD", err)
		}
	}
}

// A non-square matrix, and a permutation of the wrong length, out of
// range or repeating an index, are CodeInvalidInput.
func TestBandCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewBuilder(2, 3).Build(), identityPerm(2)); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("non-square: err = %v, want CodeInvalidInput", err)
	}
	a := gridLaplacian(2, 2)
	for _, perm := range [][]int{{1, 0}, {0, 1, 2, 4}, {0, 1, 1, 3}, {0, -1, 2, 3}} {
		if _, err := NewCholesky(a, perm); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("permutation %v: err = %v, want CodeInvalidInput", perm, err)
		}
	}
}

// A wrong-length rhs must be a typed tecerr.CodeInvalidInput error, not
// a panic.
func TestBandCholeskyRhsLenTypedError(t *testing.T) {
	a := gridLaplacian(3, 3)
	c, err := NewCholesky(a, MinDegree(a))
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
	a := b.Build()
	c, err := NewCholesky(a, MinDegree(a))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("L holds %d entries, want the 3 pivots", c.NNZ())
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

// Property: the factor agrees with CG on random SPD systems under the
// identity, RCM and minimum-degree orderings.
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
		for _, perm := range [][]int{identityPerm(n), RCM(a), MinDegree(a)} {
			c, err := NewCholesky(a, perm)
			if err != nil {
				return false
			}
			x, err := c.Solve(b)
			if err != nil {
				return false
			}
			for i := range x {
				if math.Abs(x[i]-cg.X[i]) > 1e-6*(1+math.Abs(cg.X[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// RCM should shrink the bandwidth and the stored factor on scrambled
// grids, and minimum degree the factor further still.
func TestBandCholeskyRCMShrinksBandwidth(t *testing.T) {
	a := gridLaplacian(20, 20)
	rng := rand.New(rand.NewSource(13))
	scrambled := permute(a, rng.Perm(a.Rows()))
	perm := RCM(scrambled)
	if after, before := Bandwidth(permute(scrambled, perm)), Bandwidth(scrambled); after >= before {
		t.Fatalf("RCM bandwidth %d >= naive %d", after, before)
	}
	stored := func(perm []int) int {
		c, err := NewCholesky(scrambled, perm)
		if err != nil {
			t.Fatal(err)
		}
		return c.NNZ()
	}
	naive, rcm, md := stored(identityPerm(a.Rows())), stored(perm), stored(MinDegree(scrambled))
	if rcm >= naive || md >= rcm {
		t.Fatalf("nnz(L): naive %d, RCM %d, minimum degree %d; want decreasing", naive, rcm, md)
	}
}

func TestBandCholeskySolveUnitsOutOfRange(t *testing.T) {
	a := gridLaplacian(4, 4)
	c, err := NewCholesky(a, MinDegree(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{-1}, {0, 16}, {3, 99, 1}} {
		if _, err := c.SolveUnits(bad); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("SolveUnits(%v) err = %v, want CodeInvalidInput", bad, err)
		}
	}
	if cols, err := c.SolveUnits(nil); err != nil || len(cols) != 0 {
		t.Errorf("empty index set: %d columns, err %v", len(cols), err)
	}
}
