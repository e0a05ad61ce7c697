package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tecopt/internal/sparse"
)

// refBand is the fixed-band Cholesky factorization the envelope
// replaced, kept as the oracle: L's lower band row-major, row i at
// ab[i*(bw+1) : (i+1)*(bw+1)] with column j at offset j-i+bw, factored
// one column and solved one row at a time. Every sum runs over the
// whole band, in ascending columns (factor, forward) or in ascending
// rows from the diagonal (backward).
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
			return nil, sparse.ErrNotPositiveDefiniteBand
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

// requireMatchesBand factors P A P' (perm[old] = new, nil for none) in
// the envelope and in the fixed band, and requires the envelope's Solve
// of b and each of its SolveUnits columns of idx to be bitwise the
// band's row-by-row solve of b and of the unit vector. b and idx are in
// the permuted order, the factor's own.
func requireMatchesBand(t *testing.T, a *sparse.CSR, perm []int, b []float64, idx []int) {
	t.Helper()
	c, err := sparse.NewBandCholesky(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if perm != nil {
		a = permute(a, perm)
	}
	ref, err := newRefBand(a)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s row %d: envelope %v, band %v", what, i, got[i], want[i])
			}
		}
	}
	x, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	same("Solve", x, ref.solve(b))
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
		same(fmt.Sprintf("SolveUnits column %d (e_%d)", j, k), cols[j], ref.solve(e))
		e[k] = 0
	}
}

// randomVector is n standard normal draws.
func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomEnvelopeSPD is a random symmetric, strictly diagonally dominant
// (so positive definite) n x n matrix whose first `isolated` rows hold
// only their diagonal and whose other rows are joined at random with the
// given density.
func randomEnvelopeSPD(rng *rand.Rand, n, isolated int, density float64) *sparse.CSR {
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

// The envelope must reproduce the fixed band bit for bit on random
// sparse SPD matrices under a random, non-RCM permutation: envelopes
// that start at random columns (first(i) not monotone), rows holding
// only their pivot, n mod 4 of 0 to 3 (the rows left after the groups
// of four), and 41 unit columns, so the last SolveUnits block is short
// and padded.
func TestBandCholeskyMatchesBandReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{16, 17, 18, 19, 60, 61, 62, 63} {
		for _, density := range []float64{0.05, 0.2} {
			t.Run(fmt.Sprintf("n=%d/density=%g", n, density), func(t *testing.T) {
				a := randomEnvelopeSPD(rng, n, n/8, density)
				perm := rng.Perm(n)
				idx := rng.Perm(n)[:min(n, 41)]
				requireMatchesBand(t, a, perm, randomVector(rng, n), idx)
			})
		}
	}
}

// The envelope must reproduce the fixed band bit for bit on the paper's
// networks in RCM order: the passive package and the rank-14, 36 and
// 288 deployments, with a dense right-hand side and, as unit columns,
// each deployment's update support (the passive package's silicon
// rows).
func TestBandCholeskyMatchesBandOnPaperNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rank := range []int{0, 14, 36, 288} {
		t.Run(fmt.Sprintf("rank=%d", rank), func(t *testing.T) {
			ls := newLayerSystem(t, rank)
			idx := ls.support()
			if rank == 0 {
				for _, k := range ls.sil {
					idx = append(idx, ls.perm[k])
				}
			}
			requireMatchesBand(t, ls.g, ls.perm, randomVector(rng, ls.g.Rows()), idx)
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

// Solve must return, bit for bit, the fixed band's row-by-row
// substitution for a dense random right-hand side, and SolveUnits what
// Solve returns for each unit vector, in the caller's index order. The
// shapes reach every branch of the four-row forward substitution:
// bandwidths 0 to 4 (below 3 the rows share no column) and 9, and n mod
// 4 of 0 to 3 (the rows left after the groups of four). The grid case
// adds unsorted indices, a duplicate, and 73 unit columns, so the last
// SolveUnits block is short and padded.
func TestBandCholeskySolveUnitsMatchesSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type shape struct {
		name string
		a    *sparse.CSR
		idx  []int
	}
	grid := gridMatrix(13, 9)
	// Indices below n-3 keep the last column (the largest index) off
	// the bottom rows, where its backward sums start from zero and every
	// summation order gives the same bits.
	gridIdx := rng.Perm(grid.Rows() - 3)[:71]
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
			requireMatchesBand(t, sh.a, nil, randomVector(rng, n), sh.idx)
			c, err := sparse.NewBandCholesky(sh.a, nil)
			if err != nil {
				t.Fatal(err)
			}
			cols, err := c.SolveUnits(sh.idx)
			if err != nil {
				t.Fatal(err)
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
