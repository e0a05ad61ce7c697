package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tecopt/internal/num"
	"tecopt/internal/sparse"
)

// addScaledDiagBuilder is the assembly AddScaledDiag replaced, kept as
// its oracle: the entries of a and s*d as triplets through a Builder.
func addScaledDiagBuilder(a *sparse.CSR, s float64, d []float64) *sparse.CSR {
	b := sparse.NewBuilder(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			b.Add(i, j, vals[k])
		}
	}
	for i, v := range d {
		if !num.IsZero(v) {
			b.Add(i, i, s*v)
		}
	}
	return b.Build()
}

// requireBitwiseEqual requires a and b to store the same pattern and
// bitwise the same values.
func requireBitwiseEqual(t *testing.T, name string, a, b *sparse.CSR) {
	t.Helper()
	if a.Rows() != b.Rows() || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: %d rows with %d entries, oracle %d with %d", name, a.Rows(), a.NNZ(), b.Rows(), b.NNZ())
	}
	for i := 0; i < a.Rows(); i++ {
		ac, av := a.RowNNZ(i)
		bc, bv := b.RowNNZ(i)
		if !slices.Equal(ac, bc) {
			t.Fatalf("%s: row %d stores columns %v, oracle %v", name, i, ac, bc)
		}
		for k := range av {
			if math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
				t.Fatalf("%s: entry (%d,%d) = %v, oracle %v", name, i, ac[k], av[k], bv[k])
			}
		}
	}
}

// G - i*D must be bitwise the Builder's on the paper's networks, at
// currents across the SMW regime and beyond the runaway limit.
func TestAddScaledDiagMatchesBuilderOnPaperNetworks(t *testing.T) {
	for _, rank := range []int{14, 36, 288} {
		ls := newLayerSystem(t, rank)
		for _, i := range []float64{1e-3, 7.55, 100, 256.39, 1e4} {
			name := fmt.Sprintf("rank %d, i = %g", rank, i)
			requireBitwiseEqual(t, name, ls.g.AddScaledDiag(-i, ls.d), addScaledDiagBuilder(ls.g, -i, ls.d))
		}
	}
}

// On a random matrix with rows missing their diagonal, AddScaledDiag
// inserts the diagonal where d is nonzero, leaves rows where d or s*d
// is zero alone, drops a diagonal that cancels to exactly zero, and is
// bitwise the Builder's everywhere.
func TestAddScaledDiagMatchesBuilderMissingDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		b := sparse.NewBuilder(n, n)
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j && rng.Intn(2) == 0 {
				continue // leave some rows without a diagonal
			}
			b.Add(i, j, rng.NormFloat64())
		}
		a := b.Build()
		d := make([]float64, n)
		for i := range d {
			switch rng.Intn(4) {
			case 0: // zero: the row stays as it is
			case 1: // cancel the stored diagonal exactly
				if v := a.At(i, i); !num.IsZero(v) {
					d[i] = v
				}
			default:
				d[i] = rng.NormFloat64()
			}
		}
		for _, s := range []float64{-1, 0.37, 0} {
			name := fmt.Sprintf("trial %d, s = %g", trial, s)
			requireBitwiseEqual(t, name, a.AddScaledDiag(s, d), addScaledDiagBuilder(a, s, d))
		}
	}
}

// NewCSR keeps arrays that hold the CSR's invariants and panics on any
// that break one.
func TestNewCSRChecksInvariants(t *testing.T) {
	m := sparse.NewCSR(2, 3, []int{0, 2, 3}, []int{0, 2, 1}, []float64{1, -2, 3})
	if m.NNZ() != 3 || !num.ExactEqual(m.At(0, 2), -2) || !num.ExactEqual(m.At(1, 1), 3) || !num.IsZero(m.At(1, 0)) {
		t.Fatalf("NewCSR stored %v %v %v", m.At(0, 2), m.At(1, 1), m.At(1, 0))
	}
	bad := map[string]func(){
		"short row pointer":   func() { sparse.NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}) },
		"nonzero start":       func() { sparse.NewCSR(1, 2, []int{1, 1}, []int{0}, []float64{1}) },
		"values mismatch":     func() { sparse.NewCSR(1, 2, []int{0, 1}, []int{0}, []float64{1, 2}) },
		"decreasing pointer":  func() { sparse.NewCSR(2, 2, []int{0, 2, 1}, []int{0}, []float64{1}) },
		"unsorted columns":    func() { sparse.NewCSR(1, 3, []int{0, 2}, []int{2, 0}, []float64{1, 2}) },
		"duplicate column":    func() { sparse.NewCSR(1, 3, []int{0, 2}, []int{1, 1}, []float64{1, 2}) },
		"column out of range": func() { sparse.NewCSR(1, 2, []int{0, 1}, []int{2}, []float64{1}) },
		"negative column":     func() { sparse.NewCSR(1, 2, []int{0, 1}, []int{-1}, []float64{1}) },
		"stored zero":         func() { sparse.NewCSR(1, 2, []int{0, 1}, []int{1}, []float64{0}) },
		"negative dimension":  func() { sparse.NewCSR(-1, 2, nil, nil, nil) },
	}
	for name, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCSR did not panic", name)
				}
			}()
			f()
		}()
	}
}
