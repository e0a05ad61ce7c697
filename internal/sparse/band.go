package sparse

import (
	"math"
	"sort"

	"tecopt/internal/faults"
	"tecopt/internal/num"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// BandCholesky is an exact Cholesky factorization A = L L' of a
// symmetric positive definite matrix in variable-band (envelope) storage
// (Jennings 1966): row i of L keeps only columns first(i)..i, where
// first(i) is the first column of row i of A holding a nonzero. Cholesky
// fill never leaves this envelope (George & Liu 1981, ch. 4), so the
// factorization is exact and direct; an RCM preordering, which
// minimizes the envelope, leaves a fraction of a fixed band's
// n*(bw+1) entries to store and to compute on. It is the workhorse
// behind the lambda_m binary search (each probe of "is G - i*D positive
// definite?" is one factorization attempt) and every base solve of the
// SMW fast path.
//
// Every sum runs in the order a fixed band's does, ascending, and skips
// only terms whose L operand is a structural zero: the columns of row i
// before first(i), and the rows k of column j with first(k) > j. Such a
// term subtracts ±0, which leaves a nonzero sum as it is, so every
// nonzero result is bitwise the fixed band's. Only the sign of a zero
// could differ, and the solves of the paper's networks have no zeros:
// their outputs are positive (Lemma 3).
type BandCholesky struct {
	n int
	// l holds L by rows: row i, columns first(i)..i with the diagonal
	// last, at l[rp[i]:rp[i+1]]. The factorization and forward
	// substitution read it.
	rp []int
	l  []float64
	// lt holds L by columns, that is L' by rows: column j, its diagonal
	// and then the rows k > j whose envelope reaches it (first(k) <= j)
	// in ascending order, at lt[cp[j]:cp[j+1]], the row numbers at
	// lk[cp[j]:cp[j+1]]. Backward substitution reads it. It holds the
	// same entries as l, and no zeros of the column envelope
	// j..max{k : first(k) <= j}.
	cp []int
	lk []int32
	lt []float64
}

// NewBandCholesky factors P A P' for the symmetric matrix a and the
// permutation perm (perm[old] = new; nil for none), loading the
// envelope of the permuted lower triangle straight from a. It returns
// ErrNotPositiveDefiniteBand when a pivot is non-positive. When
// observability is enabled the factorization time and outcome are
// reported under "sparse.band.*" (a failed attempt is a legitimate
// outcome: the runaway search probes currents beyond lambda_m).
func NewBandCholesky(a *CSR, perm []int) (*BandCholesky, error) {
	r := obs.Enabled()
	if r == nil {
		return newBandCholesky(a, perm)
	}
	start := r.Now()
	c, err := newBandCholesky(a, perm)
	r.Counter("sparse.band.factors").Inc()
	r.ObserveSince("sparse.band.factor_ns", start)
	if err != nil {
		r.Counter("sparse.band.factor_failures").Inc()
	}
	return c, err
}

// newBandCholesky is the uninstrumented factorization.
func newBandCholesky(a *CSR, perm []int) (*BandCholesky, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: BandCholesky needs a square matrix, have %dx%d", n, a.Cols())
	}
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	if len(perm) != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: BandCholesky permutation length %d, want %d", len(perm), n)
	}
	c := &BandCholesky{n: n, rp: make([]int, n+1)}
	// Row widths into rp[1:], then their running sum: row i spans from
	// its leftmost nonzero to the diagonal. Zero values are skipped, as
	// assembly drops them.
	width := c.rp[1:]
	for old := 0; old < n; old++ {
		i := perm[old]
		cols, vals := a.RowNNZ(old)
		for k, oc := range cols {
			if j := perm[oc]; j <= i && !num.IsZero(vals[k]) {
				width[i] = max(width[i], i-j+1)
			}
		}
		width[i] = max(width[i], 1)
	}
	for i := 0; i < n; i++ {
		c.rp[i+1] += c.rp[i]
	}
	c.l = make([]float64, c.rp[n])
	for old := 0; old < n; old++ {
		i := perm[old]
		row, g := c.row(i)
		cols, vals := a.RowNNZ(old)
		for k, oc := range cols {
			if j := perm[oc]; j <= i && !num.IsZero(vals[k]) {
				row[j-g] = vals[k]
			}
		}
	}
	// Chaos hook: perturb the loaded matrix entries before factoring.
	faults.Perturb(faults.SiteBandMatrix, c.l)
	// Row by row: row i of L solves L[0:i, 0:i] x = A[i, 0:i], which is
	// forward substitution over the rows of its envelope, and then its
	// pivot.
	for i := 0; i < n; i++ {
		row, g := c.row(i)
		c.forwardRows(row, g, i)
		d := row[i-g]
		for _, v := range row[:i-g] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefiniteBand
		}
		row[i-g] = math.Sqrt(d)
	}
	c.transpose()
	return c, nil
}

// row returns row i of L, columns g..i, and g = first(i).
func (c *BandCholesky) row(i int) ([]float64, int) {
	r := c.l[c.rp[i]:c.rp[i+1]]
	return r, i + 1 - len(r)
}

// col returns column j of L and its rows: the diagonal, then the
// envelope's rows below it.
func (c *BandCholesky) col(j int) ([]float64, []int32) {
	return c.lt[c.cp[j]:c.cp[j+1]], c.lk[c.cp[j]:c.cp[j+1]]
}

// transpose copies the factor into lt by columns.
func (c *BandCholesky) transpose() {
	n := c.n
	c.cp = make([]int, n+1)
	for k := 0; k < n; k++ {
		_, g := c.row(k)
		for j := g; j <= k; j++ {
			c.cp[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		c.cp[j+1] += c.cp[j]
	}
	c.lt = make([]float64, len(c.l))
	c.lk = make([]int32, len(c.l))
	next := make([]int, n)
	copy(next, c.cp)
	for k := 0; k < n; k++ {
		row, g := c.row(k)
		for t, v := range row {
			p := next[g+t]
			c.lt[p], c.lk[p] = v, int32(k)
			next[g+t]++
		}
	}
}

// ErrNotPositiveDefiniteBand reports a failed banded factorization. It
// carries tecerr.CodeNotPD.
var ErrNotPositiveDefiniteBand error = tecerr.New(tecerr.CodeNotPD, "sparse.band",
	"sparse: matrix is not positive definite")

// Size returns the order of the factored matrix.
func (c *BandCholesky) Size() int { return c.n }

// Solve solves A x = b. A wrong-length rhs is reported as a
// tecerr.CodeInvalidInput error (PR-4 contract: the solve stack returns
// typed errors instead of panicking on caller mistakes).
func (c *BandCholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: BandCholesky.Solve rhs length %d, want %d", len(b), c.n)
	}
	if r := obs.Enabled(); r != nil {
		start := r.Now()
		defer func() {
			r.Counter("sparse.band.solves").Inc()
			r.ObserveSince("sparse.band.solve_ns", start)
		}()
	}
	x := make([]float64, c.n)
	copy(x, b)
	c.forwardRows(x, 0, c.n)
	c.backward(x)
	return x, nil
}

// subDot returns s - a[0]*b[0] - a[1]*b[1] - ..., subtracted in that
// order.
func subDot(s float64, a, b []float64) float64 {
	b = b[:len(a)]
	for k, v := range a {
		s -= v * b[k]
	}
	return s
}

// forwardRows solves rows lo..hi-1 of L y = x in place, where x[k-lo]
// holds row k and the rows above lo are zero: row k sums from column
// max(first(k), lo). Four rows are solved at a time, each summed in its
// own order: first its own leading terms, then the terms all four
// share, then the terms on the rows of the four already solved. Each
// sum runs over ascending columns, as the row alone would, so the
// result is bitwise the row-by-row solve's; the four sums are
// independent until the last stage, so they do not wait on one
// another's additions. The last (hi-lo) mod 4 rows run one at a time.
func (c *BandCholesky) forwardRows(x []float64, lo, hi int) {
	i := lo
	for ; i+3 < hi; i += 4 {
		r0, g0 := c.row(i)
		r1, g1 := c.row(i + 1)
		r2, g2 := c.row(i + 2)
		r3, g3 := c.row(i + 3)
		f0, f1, f2, f3 := max(g0, lo), max(g1, lo), max(g2, lo), max(g3, lo)
		// The shared columns are kc..i-1; a row starting past kc has
		// none.
		kc := min(max(f0, f1, f2, f3), i)
		s0, s1, s2, s3 := x[i-lo], x[i+1-lo], x[i+2-lo], x[i+3-lo]
		if f0 < kc {
			s0 = subDot(s0, r0[f0-g0:kc-g0], x[f0-lo:])
		}
		if f1 < kc {
			s1 = subDot(s1, r1[f1-g1:kc-g1], x[f1-lo:])
		}
		if f2 < kc {
			s2 = subDot(s2, r2[f2-g2:kc-g2], x[f2-lo:])
		}
		if f3 < kc {
			s3 = subDot(s3, r3[f3-g3:kc-g3], x[f3-lo:])
		}
		if kc < i {
			xs := x[kc-lo : i-lo]
			a0 := r0[kc-g0 : i-g0][:len(xs)]
			a1 := r1[kc-g1 : i-g1][:len(xs)]
			a2 := r2[kc-g2 : i-g2][:len(xs)]
			a3 := r3[kc-g3 : i-g3][:len(xs)]
			for k, v := range xs {
				s0 -= a0[k] * v
				s1 -= a1[k] * v
				s2 -= a2[k] * v
				s3 -= a3[k] * v
			}
		}
		x[i-lo] = s0 / r0[i-g0]
		for k := max(f1, i); k < i+1; k++ {
			s1 -= r1[k-g1] * x[k-lo]
		}
		x[i+1-lo] = s1 / r1[i+1-g1]
		for k := max(f2, i); k < i+2; k++ {
			s2 -= r2[k-g2] * x[k-lo]
		}
		x[i+2-lo] = s2 / r2[i+2-g2]
		for k := max(f3, i); k < i+3; k++ {
			s3 -= r3[k-g3] * x[k-lo]
		}
		x[i+3-lo] = s3 / r3[i+3-g3]
	}
	for ; i < hi; i++ {
		r, g := c.row(i)
		f := max(g, lo)
		x[i-lo] = subDot(x[i-lo], r[f-g:i-g], x[f-lo:]) / r[i-g]
	}
}

// backward solves L' x = y in place, reading L' by rows.
func (c *BandCholesky) backward(x []float64) {
	for i := c.n - 1; i >= 0; i-- {
		col, rows := c.col(i)
		s := x[i]
		rows = rows[:len(col)]
		for t := 1; t < len(col); t++ {
			s -= col[t] * x[rows[t]]
		}
		x[i] = s / col[0]
	}
}

// unitBlock is the number of unit columns SolveUnits carries through
// the factor at once. Wider blocks read each element of L for more
// columns; narrower ones keep the block's rows near the cache.
// BenchmarkBandSolveUnits/rank=288 (full-cover network, n = 1232, an
// envelope of 97,370 entries, Intel Xeon, 2 CPUs, shared host) read
// medians of 28.3, 29.4, 29.9 and 32.9 ms for widths 8, 16, 32 and 64
// over 16 interleaved runs each. The first three lie within the host's
// spread (quartiles about 3 ms apart), and BenchmarkSMWSetup/rank=288,
// which holds this solve, read 32 ahead of 8 (medians of six, 108 and
// 116 ms): 32 stays.
const unitBlock = 32

// SolveUnits returns the columns A^{-1} e_k for the unit vectors e_k,
// k in idx, in idx order: W = G^{-1} U of an SMW setup. Each column is
// bitwise the Solve of its unit vector. The columns are sorted by k and
// solved unitBlock at a time, interleaved row by row, so each element
// of L read from the band serves the whole block; forward substitution
// starts at the block's smallest k, because the rows above it are zero
// in every column of the block. An index outside [0, n) is a
// tecerr.CodeInvalidInput error.
func (c *BandCholesky) SolveUnits(idx []int) ([][]float64, error) {
	for _, k := range idx {
		if k < 0 || k >= c.n {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
				"sparse: BandCholesky.SolveUnits index %d out of range %d", k, c.n)
		}
	}
	if r := obs.Enabled(); r != nil {
		start := r.Now()
		defer func() {
			r.Counter("sparse.band.unit_solves").Add(uint64(len(idx)))
			r.ObserveSince("sparse.band.solve_units_ns", start)
		}()
	}
	order := make([]int, len(idx))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return idx[order[a]] < idx[order[b]] })
	out := make([][]float64, len(idx))
	x := make([]float64, c.n*roundUp8(min(unitBlock, len(idx))))
	for lo := 0; lo < len(order); lo += unitBlock {
		blk := order[lo:min(lo+unitBlock, len(order))]
		// Whole groups of eight columns: a short last block is padded
		// with zero columns, which stay zero.
		nb := roundUp8(len(blk))
		xb := x[:c.n*nb]
		clear(xb)
		for col, j := range blk {
			xb[idx[j]*nb+col] = 1
		}
		c.forwardBlock(xb, nb, idx[blk[0]])
		c.backwardBlock(xb, nb)
		for col, j := range blk {
			v := make([]float64, c.n)
			for i := range v {
				v[i] = xb[i*nb+col]
			}
			out[j] = v
		}
	}
	return out, nil
}

// roundUp8 rounds k up to a multiple of eight.
func roundUp8(k int) int { return (k + 7) &^ 7 }

// forwardBlock is forward substitution on nb interleaved columns
// (x[i*nb+col] is row i of column col, nb a multiple of eight) that are
// zero above row first. Every column sees the operations of
// forwardRows in the same order; the skipped rows and terms would
// subtract exact zeros from the initial value, leaving it as is. Eight
// columns at a time are summed in registers.
func (c *BandCholesky) forwardBlock(x []float64, nb, first int) {
	for i := first; i < c.n; i++ {
		r, g := c.row(i)
		lo := max(g, first)
		row := r[lo-g : i-g]
		piv := r[i-g]
		for col := 0; col < nb; col += 8 {
			xi := (*[8]float64)(x[i*nb+col:])
			s0, s1, s2, s3, s4, s5, s6, s7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
			p := lo*nb + col
			for _, v := range row {
				xk := (*[8]float64)(x[p:])
				s0 -= v * xk[0]
				s1 -= v * xk[1]
				s2 -= v * xk[2]
				s3 -= v * xk[3]
				s4 -= v * xk[4]
				s5 -= v * xk[5]
				s6 -= v * xk[6]
				s7 -= v * xk[7]
				p += nb
			}
			xi[0], xi[1], xi[2], xi[3] = s0/piv, s1/piv, s2/piv, s3/piv
			xi[4], xi[5], xi[6], xi[7] = s4/piv, s5/piv, s6/piv, s7/piv
		}
	}
}

// backwardBlock is backward on nb interleaved columns, nb a multiple of
// eight, eight columns at a time summed in registers.
func (c *BandCholesky) backwardBlock(x []float64, nb int) {
	for i := c.n - 1; i >= 0; i-- {
		col, rows := c.col(i)
		below, at, piv := col[1:], rows[1:len(col)], col[0]
		for g := 0; g < nb; g += 8 {
			xi := (*[8]float64)(x[i*nb+g:])
			s0, s1, s2, s3, s4, s5, s6, s7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
			for t, v := range below {
				xk := (*[8]float64)(x[int(at[t])*nb+g:])
				s0 -= v * xk[0]
				s1 -= v * xk[1]
				s2 -= v * xk[2]
				s3 -= v * xk[3]
				s4 -= v * xk[4]
				s5 -= v * xk[5]
				s6 -= v * xk[6]
				s7 -= v * xk[7]
			}
			xi[0], xi[1], xi[2], xi[3] = s0/piv, s1/piv, s2/piv, s3/piv
			xi[4], xi[5], xi[6], xi[7] = s4/piv, s5/piv, s6/piv, s7/piv
		}
	}
}
