package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tecopt/internal/mat"
	"tecopt/internal/sparse"
)

// eps is the machine epsilon of float64.
const eps = 0x1p-52

// permute returns P A P' for the symmetric permutation perm, where
// perm[old] = new.
func permute(a *sparse.CSR, perm []int) *sparse.CSR {
	b := sparse.NewBuilder(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			b.Add(perm[i], perm[j], vals[k])
		}
	}
	return b.Build()
}

// randomVector is n standard normal draws.
func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomLaplacian is a weighted graph Laplacian plus a positive
// diagonal, so symmetric positive definite: the first `isolated` of its
// n vertices have no edges, and every other pair is joined with the
// given density and a weight in [0.1, 1.1).
func randomLaplacian(rng *rand.Rand, n, isolated int, density float64) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 0.1+rng.Float64())
		for j := max(i+1, isolated); i >= isolated && j < n; j++ {
			if rng.Float64() < density {
				w := 0.1 + rng.Float64()
				b.AddSym(i, j, -w)
				b.Add(i, i, w)
				b.Add(j, j, w)
			}
		}
	}
	return b.Build()
}

// gridMatrix is the 5-point Laplacian of an nx x ny grid plus 0.01 on
// the diagonal.
func gridMatrix(nx, ny int) *sparse.CSR {
	b := sparse.NewBuilder(nx*ny, nx*ny)
	for i := 0; i < nx*ny; i++ {
		b.Add(i, i, 0.01)
		for _, j := range []int{i + 1, i + nx} {
			if j < nx*ny && (j == i+nx || j%nx != 0) {
				b.AddSym(i, j, -1)
				b.Add(i, i, 1)
				b.Add(j, j, 1)
			}
		}
	}
	return b.Build()
}

// dense returns a as a dense matrix.
func dense(a *sparse.CSR) *mat.Dense {
	d := mat.NewDense(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			d.Set(i, j, vals[k])
		}
	}
	return d
}

// orderings are the permutations a factor must be correct under:
// MinDegree's, RCM's, the identity and a random one.
func orderings(rng *rand.Rand, a *sparse.CSR) map[string][]int {
	n := a.Rows()
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	return map[string][]int{
		"MinDegree": sparse.MinDegree(a),
		"RCM":       sparse.RCM(a),
		"identity":  identity,
		"random":    rng.Perm(n),
	}
}

// checkCholesky factors a under perm and requires, for the right-hand
// side b, the dense Cholesky oracle's solution to 1e-12 relative to its
// largest entry and a normwise backward error of at most 16 eps; and,
// for the unit columns idx, SolveUnits bitwise equal to Solve of each
// unit vector.
func checkCholesky(t testing.TB, a *sparse.CSR, perm []int, b []float64, idx []int) {
	t.Helper()
	c, err := sparse.NewCholesky(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := mat.NewCholesky(dense(a))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Solve(b)
	var scale float64
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12*scale {
			t.Fatalf("row %d: Cholesky %v, dense oracle %v", i, x[i], want[i])
		}
	}
	if be := sparse.BackwardError(a, x, b); be > 16*eps {
		t.Fatalf("backward error %.3g eps, want <= 16", be/eps)
	}
	cols, err := c.SolveUnits(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != len(idx) {
		t.Fatalf("%d columns, want %d", len(cols), len(idx))
	}
	e := make([]float64, a.Rows())
	for j, k := range idx {
		e[k] = 1
		col, err := c.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		e[k] = 0
		for i := range col {
			if math.Float64bits(cols[j][i]) != math.Float64bits(col[i]) {
				t.Fatalf("SolveUnits column %d (e_%d) row %d: %v, Solve %v", j, k, i, cols[j][i], col[i])
			}
		}
	}
}

// The factor must solve random sparse SPD matrices as the dense
// Cholesky does, under every ordering, with SolveUnits bitwise its
// Solve: graph Laplacians with isolated vertices, orders around the
// unit block's width, and unsorted unit indices with a duplicate and a
// short last block.
func TestCholeskyMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 7, 8, 9, 31, 64, 97} {
		for _, density := range []float64{0.05, 0.3} {
			a := randomLaplacian(rng, n, n/5, density)
			idx := rng.Perm(n)[:max(n*2/3, 1)]
			idx = append(idx, idx[0])
			for name, perm := range orderings(rng, a) {
				t.Run(fmt.Sprintf("n=%d/density=%g/%s", n, density, name), func(t *testing.T) {
					checkCholesky(t, a, perm, randomVector(rng, n), idx)
				})
			}
		}
	}
	grid := gridMatrix(13, 9)
	for name, perm := range orderings(rng, grid) {
		t.Run("grid13x9/"+name, func(t *testing.T) {
			checkCholesky(t, grid, perm, randomVector(rng, grid.Rows()), rng.Perm(grid.Rows())[:73])
		})
	}
}

// On the paper's networks (passive, greedy-sized and full-cover
// deployments) the factor matches the dense oracle and SolveUnits of
// each deployment's update support (the passive package's silicon rows)
// is bitwise its Solve.
func TestCholeskyOnPaperNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rank := range []int{0, 14, 288} {
		t.Run(fmt.Sprintf("rank=%d", rank), func(t *testing.T) {
			ls := newLayerSystem(t, rank)
			idx := ls.support()
			if rank == 0 {
				idx = ls.sil
			}
			checkCholesky(t, ls.g, ls.perm, randomVector(rng, ls.g.Rows()), idx)
		})
	}
}

// refBand is the fixed-band Cholesky factorization, kept as the
// oracle: L's lower band row-major, row i at ab[i*(bw+1) : (i+1)*(bw+1)]
// with column j at offset j-i+bw, factored one column and solved one
// row at a time. Every sum runs over the whole band, in ascending
// columns (factor, forward) or in ascending rows from the diagonal
// (backward).
type refBand struct {
	n, bw int
	ab    []float64
}

// at returns L[i][j], j within the band of row i.
func (r *refBand) at(i, j int) float64 { return r.ab[i*(r.bw+1)+j-i+r.bw] }

// newRefBand factors the symmetric matrix a in its own order.
func newRefBand(a *sparse.CSR) (*refBand, error) {
	n, bw := a.Rows(), sparse.Bandwidth(a)
	r := &refBand{n: n, bw: bw, ab: make([]float64, n*(bw+1))}
	for i := 0; i < n; i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			if j <= i {
				r.ab[i*(bw+1)+j-i+bw] = vals[k]
			}
		}
	}
	for j := 0; j < n; j++ {
		d := r.at(j, j)
		for k := max(j-bw, 0); k < j; k++ {
			d -= r.at(j, k) * r.at(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, sparse.ErrNotPositiveDefinite
		}
		piv := math.Sqrt(d)
		r.ab[j*(bw+1)+bw] = piv
		for i := j + 1; i <= min(j+bw, n-1); i++ {
			s := r.at(i, j)
			for k := max(i-bw, 0); k < j; k++ {
				s -= r.at(i, k) * r.at(j, k)
			}
			r.ab[i*(bw+1)+j-i+bw] = s / piv
		}
	}
	return r, nil
}

// solve is forward and backward substitution one row at a time.
func (r *refBand) solve(b []float64) []float64 {
	n, bw := r.n, r.bw
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		s := x[i]
		for k := max(i-bw, 0); k < i; k++ {
			s -= r.at(i, k) * x[k]
		}
		x[i] = s / r.at(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k <= min(i+bw, n-1); k++ {
			s -= r.at(k, i) * x[k]
		}
		x[i] = s / r.at(i, i)
	}
	return x
}

// requireMatchesBand factors A under perm (perm[old] = new) with the
// sparse factor, and P A P' in its own order with the fixed band, and
// requires the sparse Solve of b and each of its SolveUnits columns of
// idx to be bitwise the band's solve of the permuted b and unit vector,
// permuted back.
func requireMatchesBand(t *testing.T, a *sparse.CSR, perm []int, b []float64, idx []int) {
	t.Helper()
	c, err := sparse.NewCholesky(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefBand(permute(a, perm))
	if err != nil {
		t.Fatal(err)
	}
	band := func(b []float64) []float64 {
		return sparse.PermuteVec(sparse.InvertPerm(perm), ref.solve(sparse.PermuteVec(perm, b)))
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s row %d: sparse %v, band %v", what, i, got[i], want[i])
			}
		}
	}
	x, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	same("Solve", x, band(b))
	cols, err := c.SolveUnits(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != len(idx) {
		t.Fatalf("%d columns, want %d", len(cols), len(idx))
	}
	e := make([]float64, len(b))
	for j, k := range idx {
		e[k] = 1
		same(fmt.Sprintf("SolveUnits column %d (e_%d)", j, k), cols[j], band(e))
		e[k] = 0
	}
}

// The sparse factor runs every sum of the fixed band in the band's
// order, skipping only terms that are structural zeros, so it must
// reproduce the band bit for bit: on random sparse SPD matrices under a
// random permutation, with rows holding only their pivot, and 41 unit
// columns, so the last SolveUnits block is short.
func TestBandCholeskyMatchesBandReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{16, 17, 18, 19, 60, 61, 62, 63} {
		for _, density := range []float64{0.05, 0.2} {
			t.Run(fmt.Sprintf("n=%d/density=%g", n, density), func(t *testing.T) {
				a := randomLaplacian(rng, n, n/8, density)
				perm := rng.Perm(n)
				idx := rng.Perm(n)[:min(n, 41)]
				requireMatchesBand(t, a, perm, randomVector(rng, n), idx)
			})
		}
	}
}

// The same on the paper's networks in RCM order, the order the
// repository benchmark's replay factors in: the passive package and the
// rank-14, 36 and 288 deployments, with a dense right-hand side and, as
// unit columns, each deployment's update support (the passive package's
// silicon rows).
func TestBandCholeskyMatchesBandOnPaperNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rank := range []int{0, 14, 36, 288} {
		t.Run(fmt.Sprintf("rank=%d", rank), func(t *testing.T) {
			ls := newLayerSystem(t, rank)
			idx := ls.support()
			if rank == 0 {
				idx = ls.sil
			}
			requireMatchesBand(t, ls.g, sparse.RCM(ls.g), randomVector(rng, ls.g.Rows()), idx)
		})
	}
}

// randomBanded is a random symmetric, strictly diagonally dominant (so
// positive definite) n x n matrix whose every entry within bw of the
// diagonal is nonzero: its bandwidth is exactly bw.
func randomBanded(rng *rand.Rand, n, bw int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, float64(2*bw+1)+rng.Float64())
		for j := max(i-bw, 0); j < i; j++ {
			b.AddSym(i, j, -0.1-0.9*rng.Float64())
		}
	}
	return b.Build()
}

// SolveUnits must return what Solve returns for each unit vector, bit
// for bit, in the caller's index order, under the minimum-degree
// ordering: on banded matrices of bandwidth 0 to 4 and 9 (a diagonal
// matrix's tree is all roots, a tridiagonal one's a path) with a
// repeated index, and on a grid with unsorted indices, a duplicate and
// 73 unit columns, so the last block is short.
func TestBandCholeskySolveUnitsMatchesSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type shape struct {
		name string
		a    *sparse.CSR
		idx  []int
	}
	grid := gridMatrix(13, 9)
	gridIdx := rng.Perm(grid.Rows())[:71]
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
			checkCholesky(t, sh.a, sparse.MinDegree(sh.a), randomVector(rng, sh.a.Rows()), sh.idx)
		})
	}
}

// FuzzCholesky factors random small graph Laplacians plus a positive
// diagonal, built from the fuzzer's bytes, under MinDegree, and keeps
// every invariant of checkCholesky.
func FuzzCholesky(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(80), uint8(1))
	f.Add(int64(7), uint8(33), uint8(10), uint8(0))
	f.Add(int64(-3), uint8(1), uint8(255), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, size, density, isolated uint8) {
		n := 1 + int(size)%48
		rng := rand.New(rand.NewSource(seed))
		a := randomLaplacian(rng, n, int(isolated)%(n+1), float64(density)/255)
		perm := sparse.MinDegree(a)
		checkPermutation(t, perm, n)
		idx := make([]int, 1+rng.Intn(2*n))
		for j := range idx {
			idx[j] = rng.Intn(n)
		}
		checkCholesky(t, a, perm, randomVector(rng, n), idx)
	})
}
