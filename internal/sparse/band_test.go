package sparse

import (
	"errors"
	"fmt"
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

// randomBanded is a random symmetric, strictly diagonally dominant (so
// positive definite) n x n matrix whose every entry within bw of the
// diagonal is nonzero: its bandwidth is exactly bw.
func randomBanded(rng *rand.Rand, n, bw int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, float64(2*bw+1)+rng.Float64())
		for j := max(i-bw, 0); j < i; j++ {
			b.AddSym(i, j, -0.1-0.9*rng.Float64())
		}
	}
	return b.Build()
}

// refSolve is forward and backward substitution one row at a time, in
// the order every band solve must reproduce bitwise: each row's sum runs
// over ascending (forward) or ascending-from-the-diagonal (backward)
// columns.
func refSolve(c *BandCholesky, b []float64) []float64 {
	n, bw, w := c.n, c.bw, c.bw+1
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		s := x[i]
		for k := max(i-bw, 0); k < i; k++ {
			s -= c.ab[i*w+k-i+bw] * x[k]
		}
		x[i] = s / c.ab[i*w+bw]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k <= min(i+bw, n-1); k++ {
			s -= c.ab[k*w+i-k+bw] * x[k]
		}
		x[i] = s / c.ab[i*w+bw]
	}
	return x
}

// Solve must return, bit for bit, the row-by-row substitution of
// refSolve for a dense random right-hand side, and SolveUnits what Solve
// returns for each unit vector, in the caller's index order. The shapes
// reach every branch of the four-row forward substitution: bandwidths 0
// to 4 (below 3 the rows run one at a time) and 9, and n mod 4 of 0 to
// 3 (the rows left after the groups of four). The grid case adds
// unsorted indices, a duplicate, and a last SolveUnits block of nine
// columns, padded to sixteen.
func TestBandCholeskySolveUnitsMatchesSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type shape struct {
		name string
		a    *CSR
		idx  []int
	}
	grid := gridLaplacian(13, 9)
	// Indices below n-3 keep the last column (the largest index) off
	// the bottom rows, where its backward sums start from zero and every
	// summation order gives the same bits.
	gridIdx := rng.Perm(grid.Rows() - 3)[:2*unitBlock+7]
	shapes := []shape{{"grid13x9", grid, append(gridIdx, gridIdx[4], 0)}}
	for _, n := range []int{3, 16, 17, 18, 19} {
		for _, bw := range []int{0, 1, 2, 3, 4, 9} {
			if bw >= n {
				continue
			}
			idx := rng.Perm(n)
			shapes = append(shapes, shape{fmt.Sprintf("n=%d/bw=%d", n, bw), randomBanded(rng, n, bw), append(idx, idx[0])})
		}
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			n := sh.a.Rows()
			c, err := NewBandCholesky(sh.a)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.BandwidthUsed(), Bandwidth(sh.a); got != want {
				t.Fatalf("bandwidth %d, want %d", got, want)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x, err := c.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range refSolve(c, b) {
				if math.Float64bits(x[i]) != math.Float64bits(want) {
					t.Fatalf("dense rhs row %d: Solve %v, row-by-row %v", i, x[i], want)
				}
			}
			cols, err := c.SolveUnits(sh.idx)
			if err != nil {
				t.Fatal(err)
			}
			if len(cols) != len(sh.idx) {
				t.Fatalf("%d columns, want %d", len(cols), len(sh.idx))
			}
			e := make([]float64, n)
			for j, k := range sh.idx {
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
		})
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
