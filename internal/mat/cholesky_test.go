package mat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
)

func spd3() *Dense {
	// A small SPD matrix with known factor.
	return NewDenseFrom([][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	})
}

// mustCholesky factors a known-SPD matrix, failing the test if the
// factorization unexpectedly reports an error.
func mustCholesky(t *testing.T, a *Dense) *Cholesky {
	t.Helper()
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	return c
}

func TestCholeskyReconstruction(t *testing.T) {
	a := spd3()
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	l := c.L()
	got := l.Mul(l.T())
	if !got.Equal(a, 1e-12) {
		t.Fatalf("L*L' = %v, want %v", got, a)
	}
	// Upper triangle of L must be zero.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !num.IsZero(l.At(i, j)) {
				t.Errorf("L(%d,%d) = %v, want 0", i, j, l.At(i, j))
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	a := spd3()
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	got := c.Solve(b)
	if !EqualVec(got, want, 1e-12) {
		t.Fatalf("Solve = %v, want %v", got, want)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	// Indefinite matrix.
	a := NewDenseFrom([][]float64{{1, 2}, {2, 1}})
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if IsPositiveDefinite(a) {
		t.Error("IsPositiveDefinite = true for indefinite matrix")
	}
	if !IsPositiveDefinite(spd3()) {
		t.Error("IsPositiveDefinite = false for SPD matrix")
	}
}

func TestCholeskySingularRejected(t *testing.T) {
	// Singular PSD matrix (rank 1).
	a := NewDenseFrom([][]float64{{1, 1}, {1, 1}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure for singular matrix")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestCholeskyInverse(t *testing.T) {
	a := spd3()
	c := mustCholesky(t, a)
	inv := c.Inverse()
	if got := a.Mul(inv); !got.Equal(Identity(3), 1e-12) {
		t.Fatalf("A * A^-1 = %v, want I", got)
	}
}

func TestCholeskySolveWrongLenPanics(t *testing.T) {
	c := mustCholesky(t, spd3())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong rhs length")
		}
	}()
	c.Solve([]float64{1, 2})
}

// Property: for random SPD matrices A = M'M + eps*I, Cholesky succeeds and
// Solve inverts MulVec.
func TestCholeskyRandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := randomDense(rng, n, n)
		a := m.T().Mul(m)
		for i := 0; i < n; i++ {
			a.Add(i, i, 0.5)
		}
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		want := randomVec(rng, n)
		got := c.Solve(a.MulVec(want))
		return EqualVec(got, want, 1e-6*(1+NormInf(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: random Stieltjes matrices from our generator are PD and
// Cholesky-factorable.
func TestRandomStieltjesIsPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := RandomStieltjes(rng, n, 0.3)
		return IsStieltjes(a, 1e-12) && IsIrreducible(a) && IsPositiveDefinite(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
