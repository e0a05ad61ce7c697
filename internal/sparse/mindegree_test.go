package sparse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tecopt/internal/sparse"
)

// checkPermutation requires perm to be a permutation of 0..n-1.
func checkPermutation(t testing.TB, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("permutation of length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for old, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("perm[%d] = %d repeats or leaves [0, %d)", old, p, n)
		}
		seen[p] = true
	}
}

// factorNNZ is the number of entries of L for a under perm.
func factorNNZ(t testing.TB, a *sparse.CSR, perm []int) int {
	t.Helper()
	c, err := sparse.NewCholesky(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	return c.NNZ()
}

// MinDegree returns a permutation, and the same one on every call.
func TestMinDegreeIsDeterministicPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]*sparse.CSR{
		"grid7x5":  gridMatrix(7, 5),
		"single":   gridMatrix(1, 1),
		"isolated": randomLaplacian(rng, 40, 40, 0),
		"network":  newLayerSystem(t, 14).g,
	}
	for k := 0; k < 20; k++ {
		n := 1 + rng.Intn(150)
		cases[fmt.Sprintf("random%d", k)] = randomLaplacian(rng, n, rng.Intn(n+1), rng.Float64()*0.3)
	}
	for name, a := range cases {
		first := sparse.MinDegree(a)
		checkPermutation(t, first, a.Rows())
		for r := 0; r < 3; r++ {
			if got := sparse.MinDegree(a); !slices.Equal(got, first) {
				t.Fatalf("%s: call %d gave another ordering", name, r+2)
			}
		}
	}
}

// A path and a star are trees: eliminating leaves first, as minimum
// degree does, leaves no fill, so L holds exactly A's lower triangle.
// Their natural orders are scrambled first.
func TestMinDegreeZeroFillOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 60
	path, star := sparse.NewBuilder(n, n), sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		path.Add(i, i, 3)
		star.Add(i, i, float64(n))
		if i > 0 {
			path.AddSym(i-1, i, -1)
			star.AddSym(0, i, -1)
		}
	}
	for name, a := range map[string]*sparse.CSR{"path": path.Build(), "star": star.Build()} {
		a = permute(a, rng.Perm(n))
		lower := (a.NNZ() + n) / 2
		if got := factorNNZ(t, a, sparse.MinDegree(a)); got != lower {
			t.Errorf("%s: nnz(L) = %d, want %d (no fill)", name, got, lower)
		}
	}
}

// On the paper's networks MinDegree's factor is at most a fifth of the
// RCM envelope the factor replaced (65,380 entries on the passive
// network, 97,370 on the full cover).
func TestMinDegreeFillOnPaperNetworks(t *testing.T) {
	for _, c := range []struct{ rank, limit int }{{0, 21000}, {288, 19000}} {
		ls := newLayerSystem(t, c.rank)
		got := factorNNZ(t, ls.g, ls.perm)
		t.Logf("rank %d: n = %d, nnz(L) = %d", c.rank, ls.g.Rows(), got)
		if got > c.limit {
			t.Errorf("rank %d: nnz(L) = %d, want <= %d", c.rank, got, c.limit)
		}
	}
}
