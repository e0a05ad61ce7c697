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
	c, err := NewBandCholesky(a)
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
	if _, err := NewBandCholesky(b.Build()); !errors.Is(err, ErrNotPositiveDefiniteBand) {
		t.Fatalf("err = %v, want not-PD", err)
	}
	if IsPositiveDefiniteBand(b.Build()) {
		t.Error("indefinite matrix reported PD")
	}
	if !IsPositiveDefiniteBand(gridLaplacian(4, 4)) {
		t.Error("SPD grid reported not PD")
	}
}

func TestBandCholeskyNonSquare(t *testing.T) {
	if _, err := NewBandCholesky(NewBuilder(2, 3).Build()); err == nil {
		t.Fatal("non-square accepted")
	}
}

// A wrong-length rhs must be a typed tecerr.CodeInvalidInput error, not
// a panic.
func TestBandCholeskyRhsLenTypedError(t *testing.T) {
	c, err := NewBandCholesky(gridLaplacian(3, 3))
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
	c, err := NewBandCholesky(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if c.BandwidthUsed() != 0 {
		t.Fatalf("bandwidth = %d, want 0", c.BandwidthUsed())
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
		direct, err := NewBandCholesky(a)
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
		ap := a.Permute(perm)
		dp, err := NewBandCholesky(ap)
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

// RCM should shrink the band cost on scrambled grids.
func TestBandCholeskyRCMShrinksBandwidth(t *testing.T) {
	a := gridLaplacian(20, 20)
	rng := rand.New(rand.NewSource(13))
	scrambled := a.Permute(rng.Perm(a.Rows()))
	perm := RCM(scrambled)
	direct, err := NewBandCholesky(scrambled.Permute(perm))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewBandCholesky(scrambled)
	if err != nil {
		t.Fatal(err)
	}
	if direct.BandwidthUsed() >= naive.BandwidthUsed() {
		t.Fatalf("RCM bandwidth %d >= naive %d", direct.BandwidthUsed(), naive.BandwidthUsed())
	}
}

// SolveUnits must return, bit for bit, what Solve returns for each unit
// vector, in the caller's index order: unsorted indices, a duplicate,
// and a last block of nine columns, padded to sixteen, included.
func TestBandCholeskySolveUnitsMatchesSolveBitwise(t *testing.T) {
	a := gridLaplacian(13, 9)
	n := a.Rows()
	c, err := NewBandCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Indices below n-3 keep the last column (the largest index) off
	// the bottom rows, where its backward sums start from zero and every
	// summation order gives the same bits.
	idx := rng.Perm(n - 3)[:2*unitBlock+7]
	idx = append(idx, idx[4], 0)
	cols, err := c.SolveUnits(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != len(idx) {
		t.Fatalf("%d columns, want %d", len(cols), len(idx))
	}
	e := make([]float64, n)
	for j, k := range idx {
		e[k] = 1
		want, err := c.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		e[k] = 0
		for i := range want {
			if math.Float64bits(cols[j][i]) != math.Float64bits(want[i]) {
				t.Fatalf("column %d (e_%d) row %d: SolveUnits %v, Solve %v", j, k, i, cols[j][i], want[i])
			}
		}
	}
	if cols, err := c.SolveUnits(nil); err != nil || len(cols) != 0 {
		t.Fatalf("empty index set: %d columns, err %v", len(cols), err)
	}
}

func TestBandCholeskySolveUnitsOutOfRange(t *testing.T) {
	c, err := NewBandCholesky(gridLaplacian(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{-1}, {0, 16}, {3, 99, 1}} {
		if _, err := c.SolveUnits(bad); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("SolveUnits(%v) err = %v, want CodeInvalidInput", bad, err)
		}
	}
}
