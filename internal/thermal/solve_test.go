package thermal

import (
	"errors"
	"math"
	"testing"

	"tecopt/internal/mat"
	"tecopt/internal/sparse"
)

// TestSolveSteadyMethodsAgree checks the band solve against the two
// reference solvers: IC(0)-preconditioned CG and a dense Cholesky
// factorization, the paper's stated method.
func TestSolveSteadyMethodsAgree(t *testing.T) {
	pn := defaultPN(t, nil)
	tile := make([]float64, pn.NumTiles())
	tile[70] = 3
	tile[10] = 1
	p, err := pn.PowerVector(tile)
	if err != nil {
		t.Fatal(err)
	}
	rhs := pn.Net.BaseRHS()
	for i, v := range p {
		rhs[i] += v
	}
	g := pn.Net.G()

	band, err := SolveSteady(g, rhs)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := sparse.SolveCG(g, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(g)})
	if err != nil {
		t.Fatal(err)
	}
	chol, err := mat.NewCholesky(denseOf(g))
	if err != nil {
		t.Fatal(err)
	}
	dense := chol.Solve(rhs)
	for i := range band {
		if math.Abs(band[i]-cg.X[i]) > 1e-6 {
			t.Fatalf("band vs CG at node %d: %v vs %v", i, band[i], cg.X[i])
		}
		if math.Abs(band[i]-dense[i]) > 1e-6 {
			t.Fatalf("band vs dense at node %d: %v vs %v", i, band[i], dense[i])
		}
	}
}

// denseOf copies a sparse matrix into a dense one.
func denseOf(a *sparse.CSR) *mat.Dense {
	n := a.Rows()
	d := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			d.Set(i, j, vals[k])
		}
	}
	return d
}

func TestSolveSteadyNotPD(t *testing.T) {
	// An indefinite matrix must be rejected by the band solve as
	// ErrNotPD, and by both reference solvers.
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, -1)
	b.Add(1, 1, -1)
	m := b.Build()
	rhs := []float64{1, 1}
	if _, err := SolveSteady(m, rhs); !errors.Is(err, ErrNotPD) {
		t.Errorf("band: err = %v, want ErrNotPD", err)
	}
	if _, err := sparse.SolveCG(m, rhs, sparse.CGOptions{Tol: 1e-12, Precond: sparse.NewBestPreconditioner(m)}); !errors.Is(err, sparse.ErrBreakdown) {
		t.Errorf("CG: err = %v, want ErrBreakdown", err)
	}
	if _, err := mat.NewCholesky(denseOf(m)); err == nil {
		t.Error("dense Cholesky accepted an indefinite matrix")
	}
}

// A precomputed ordering handed to Factor gives the nil default's
// solution bit for bit when it is the minimum-degree ordering, and to
// rounding under any other permutation.
func TestFactorReusesPermutation(t *testing.T) {
	pn := defaultPN(t, nil)
	g := pn.Net.G()
	perm := sparse.MinDegree(g)
	f1, err := Factor(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Factor(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rhs := pn.Net.BaseRHS()
	a, err := f1.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f2.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]int, len(perm))
	for i := range reversed {
		reversed[i] = len(perm) - 1 - i
	}
	f3, err := Factor(g, reversed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f3.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("permutation reuse changed the solution at node %d", i)
		}
		if math.Abs(c[i]-a[i]) > 1e-9 {
			t.Fatalf("reversed order: node %d reads %v, want %v", i, c[i], a[i])
		}
	}
}
