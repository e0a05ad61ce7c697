package sparse_test

import (
	"fmt"
	"testing"

	"tecopt/internal/core"
	"tecopt/internal/floorplan"
	"tecopt/internal/num"
	"tecopt/internal/power"
	"tecopt/internal/sparse"
	"tecopt/internal/thermal"
)

// Layer benchmarks of the solver on the paper's thermal network: the
// Alpha chip's 12x12 package model with rank/2 TECs spread evenly over
// the tiles. Rank 14 and 36 are the SMW ranks of the Table I greedy
// deployments of Alpha and HC07, rank 288 that of a full cover.

// layerSystem is one deployment's G, D, RCM ordering and silicon
// rows.
type layerSystem struct {
	g    *sparse.CSR
	d    []float64
	perm []int
	sil  []int
}

func newLayerSystem(tb testing.TB, rank int) layerSystem {
	tb.Helper()
	f, grid := floorplan.Alpha21364Grid()
	nt := grid.NumTiles()
	sites := make([]int, rank/2)
	for j := range sites {
		sites[j] = j * nt / len(sites)
	}
	sys, err := core.NewSystem(core.Config{TilePower: power.AlphaTilePowers(f, grid)}, sites)
	if err != nil {
		tb.Fatal(err)
	}
	g := sys.Matrix(0)
	return layerSystem{g: g, d: sys.Array.DVector(sys.NumNodes()), perm: sparse.RCM(g), sil: sys.PN.SilNode}
}

// factor is the base factorization of G in RCM order.
func (ls layerSystem) factor(tb testing.TB) *thermal.Factorization {
	tb.Helper()
	f, err := thermal.Factor(ls.g, ls.perm)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// smw is the production SMW setup over the base factorization.
func (ls layerSystem) smw(tb testing.TB, f *thermal.Factorization) *sparse.SMW {
	tb.Helper()
	s, err := sparse.NewSMWUnits(ls.d, f.SolveUnits)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// support is the update's support in the factor's (RCM) ordering.
func (ls layerSystem) support() []int {
	var idx []int
	for k, v := range ls.d {
		if !num.IsZero(v) {
			idx = append(idx, ls.perm[k])
		}
	}
	return idx
}

// BenchmarkSMWSetup times the whole SMW setup of thermal.NewReusableSystem
// after the base factorization: the blocked W = G^{-1} U solve, M and its
// Cholesky factor, T = L'SL and its eigendecomposition, and P2.
func BenchmarkSMWSetup(b *testing.B) {
	for _, rank := range []int{14, 36, 288} {
		b.Run(fmt.Sprintf("rank=%d", rank), func(b *testing.B) {
			ls := newLayerSystem(b, rank)
			f := ls.factor(b)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				ls.smw(b, f)
			}
		})
	}
}

// BenchmarkBandFactor times the banded Cholesky factorization of the
// full-cover G in RCM order.
func BenchmarkBandFactor(b *testing.B) {
	ls := newLayerSystem(b, 288)
	ap := ls.g.Permute(ls.perm)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := sparse.NewBandCholesky(ap); err != nil {
			b.Fatal(err)
		}
	}
}

// bandFactor factors the full-cover G in RCM order.
func bandFactor(b *testing.B, ls layerSystem) *sparse.BandCholesky {
	b.Helper()
	c, err := sparse.NewBandCholesky(ls.g.Permute(ls.perm))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkBandSolve times one forward and backward substitution, the
// base solve of every per-current SMW solve.
func BenchmarkBandSolve(b *testing.B) {
	ls := newLayerSystem(b, 288)
	c := bandFactor(b, ls)
	rhs := make([]float64, c.Size())
	for i := range rhs {
		rhs[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := c.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandSolveUnits times the blocked solve of the 288 unit
// columns of a full cover's W; the SolveUnits block width is chosen
// from it.
func BenchmarkBandSolveUnits(b *testing.B) {
	ls := newLayerSystem(b, 288)
	c := bandFactor(b, ls)
	idx := ls.support()
	b.Run(fmt.Sprintf("rank=%d", len(idx)), func(b *testing.B) {
		b.ReportAllocs()
		for k := 0; k < b.N; k++ {
			if _, err := c.SolveUnits(idx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSMWCorrect times one per-current correction at half the
// runaway limit, on a base solution computed beforehand.
func BenchmarkSMWCorrect(b *testing.B) {
	for _, rank := range []int{14, 288} {
		b.Run(fmt.Sprintf("rank=%d", rank), func(b *testing.B) {
			ls := newLayerSystem(b, rank)
			f := ls.factor(b)
			s := ls.smw(b, f)
			rhs := make([]float64, len(ls.d))
			for i := range rhs {
				rhs[i] = 1
			}
			y0, err := f.Solve(rhs)
			if err != nil {
				b.Fatal(err)
			}
			y := make([]float64, len(y0))
			i := 0.5 * s.Lambda()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				copy(y, y0)
				if err := s.Correct(i, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSMWReadRows times the optimizer objective's read: the 144
// silicon rows of (G - i*D)^{-1} (b + c*1_U) from b's prepared pole
// form, at half the runaway limit, with no base solve.
func BenchmarkSMWReadRows(b *testing.B) {
	for _, rank := range []int{14, 288} {
		b.Run(fmt.Sprintf("rank=%d", rank), func(b *testing.B) {
			ls := newLayerSystem(b, rank)
			f := ls.factor(b)
			s := ls.smw(b, f)
			rhs := make([]float64, len(ls.d))
			for i := range rhs {
				rhs[i] = 1
			}
			y, err := f.Solve(rhs)
			if err != nil {
				b.Fatal(err)
			}
			load := s.Form(y)
			out := make([]float64, len(ls.sil))
			i := 0.5 * s.Lambda()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if err := s.Read(i, 0.5, load, ls.sil, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSMWEntry times one h_kl point from memoized pair weights,
// the h_kl sweep's per-current work: entry (sil[0], sil[1]) at half the
// runaway limit.
func BenchmarkSMWEntry(b *testing.B) {
	for _, rank := range []int{14, 288} {
		b.Run(fmt.Sprintf("rank=%d", rank), func(b *testing.B) {
			ls := newLayerSystem(b, rank)
			f := ls.factor(b)
			s := ls.smw(b, f)
			e := make([]float64, len(ls.d))
			e[ls.sil[1]] = 1
			y, err := f.Solve(e)
			if err != nil {
				b.Fatal(err)
			}
			k := ls.sil[0]
			z, err := s.Pair(k, y)
			if err != nil {
				b.Fatal(err)
			}
			i := 0.5 * s.Lambda()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := s.Entry(i, y[k], z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
