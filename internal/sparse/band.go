package sparse

import (
	"math"
	"sort"

	"tecopt/internal/faults"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// BandCholesky is an exact Cholesky factorization of a symmetric positive
// definite matrix stored in lower-band form. Because Cholesky fill is
// confined to the band, this is a direct method: factorization costs
// O(n*bw^2) and each solve O(n*bw). Combined with an RCM preordering it
// is the workhorse behind the lambda_m binary search (each probe of
// "is G - i*D positive definite?" is one factorization attempt) and the
// repeated steady-state solves of the current optimizer.
type BandCholesky struct {
	n, bw int
	// ab stores the lower band of L row-major: row i occupies
	// ab[i*(bw+1) : (i+1)*(bw+1)], with column j at offset j-i+bw
	// (so the diagonal sits at offset bw).
	ab []float64
}

// NewBandCholesky factors the symmetric matrix a (only the lower triangle
// is read). It returns mat-level ErrBreakdown semantics via
// ErrNotPositiveDefiniteBand when a pivot is non-positive. When
// observability is enabled the factorization time and outcome are
// reported under "sparse.band.*" (a failed attempt is a legitimate
// outcome: the runaway search probes currents beyond lambda_m).
func NewBandCholesky(a *CSR) (*BandCholesky, error) {
	r := obs.Enabled()
	if r == nil {
		return newBandCholesky(a)
	}
	start := r.Now()
	c, err := newBandCholesky(a)
	r.Counter("sparse.band.factors").Inc()
	r.Histogram("sparse.band.factor_ns").Observe(clampNS(r.Now() - start))
	if err != nil {
		r.Counter("sparse.band.factor_failures").Inc()
	} else {
		r.Gauge("sparse.band.bandwidth").Set(int64(c.bw))
	}
	return c, err
}

// newBandCholesky is the uninstrumented factorization.
func newBandCholesky(a *CSR) (*BandCholesky, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: BandCholesky needs a square matrix, have %dx%d", n, a.Cols())
	}
	bw := Bandwidth(a)
	c := &BandCholesky{n: n, bw: bw, ab: make([]float64, n*(bw+1))}
	// Load the lower band.
	for i := 0; i < n; i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			if j <= i {
				c.ab[i*(bw+1)+j-i+bw] = vals[k]
			}
		}
	}
	// Chaos hook: perturb the loaded matrix entries before factoring.
	faults.Perturb(faults.SiteBandMatrix, c.ab)
	// In-place banded Cholesky. Each band row is sliced once, so the
	// inner products run over contiguous slices of L's rows.
	w := bw + 1
	for j := 0; j < n; j++ {
		rowj := c.ab[j*w : (j+1)*w]
		// Pivot.
		lo := max(j-bw, 0)
		d := rowj[bw]
		for _, v := range rowj[lo-j+bw : bw] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefiniteBand
		}
		piv := math.Sqrt(d)
		rowj[bw] = piv
		// Column below the pivot (rows j+1 .. j+bw): L[i][j] is
		// (A[i][j] - sum_k L[i][k] L[j][k]) / piv over k = klo..j-1,
		// klo = max(i-bw, 0). The rows are independent, so four of them
		// are summed at once, each in its own order: first its own
		// leading terms, then the terms all four share.
		hi := min(j+bw, n-1)
		i := j + 1
		for ; i+3 <= hi; i += 4 {
			kc := max(i+3-bw, 0)
			var acc [4]float64
			var rows [4][]float64
			for a := range rows {
				ia := i + a
				rowi := c.ab[ia*w : (ia+1)*w]
				klo := max(ia-bw, 0)
				lead := rowi[klo-ia+bw : kc-ia+bw]
				lj := rowj[klo-j+bw : kc-j+bw]
				lj = lj[:len(lead)]
				sa := rowi[j-ia+bw]
				for k, v := range lead {
					sa -= v * lj[k]
				}
				acc[a] = sa
				rows[a] = rowi[kc-ia+bw : j-ia+bw]
			}
			lj := rowj[kc-j+bw : bw]
			r0, r1, r2, r3 := rows[0][:len(lj)], rows[1][:len(lj)], rows[2][:len(lj)], rows[3][:len(lj)]
			s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
			for k, v := range lj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			c.ab[i*w+j-i+bw] = s0 / piv
			c.ab[(i+1)*w+j-i-1+bw] = s1 / piv
			c.ab[(i+2)*w+j-i-2+bw] = s2 / piv
			c.ab[(i+3)*w+j-i-3+bw] = s3 / piv
		}
		for ; i <= hi; i++ {
			rowi := c.ab[i*w : (i+1)*w]
			klo := max(i-bw, 0)
			li := rowi[klo-i+bw : j-i+bw]
			lj := rowj[klo-j+bw : bw]
			lj = lj[:len(li)]
			s := rowi[j-i+bw]
			for k, v := range li {
				s -= v * lj[k]
			}
			rowi[j-i+bw] = s / piv
		}
	}
	return c, nil
}

// ErrNotPositiveDefiniteBand reports a failed banded factorization. It
// carries tecerr.CodeNotPD.
var ErrNotPositiveDefiniteBand error = tecerr.New(tecerr.CodeNotPD, "sparse.band",
	"sparse: matrix is not positive definite")

// Size returns the order of the factored matrix.
func (c *BandCholesky) Size() int { return c.n }

// BandwidthUsed returns the (half) bandwidth of the stored factor.
func (c *BandCholesky) BandwidthUsed() int { return c.bw }

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
			r.Histogram("sparse.band.solve_ns").Observe(clampNS(r.Now() - start))
		}()
	}
	x := make([]float64, c.n)
	copy(x, b)
	c.forward(x)
	c.backward(x)
	return x, nil
}

// forward solves L y = x in place. Four rows are solved at a time, each
// summed in its own order, as in the factorization: first its own
// leading terms, then the terms all four share, then the terms on the
// rows of the four already solved. Each sum runs over ascending columns,
// as the row alone would, so the result is bitwise the row-by-row
// solve's; the four sums are independent until the last stage, so they
// do not wait on one another's additions. The last n mod 4 rows, and
// bandwidths below 3 (where the four rows share no column), run one
// row at a time.
func (c *BandCholesky) forward(x []float64) {
	n, bw, w := c.n, c.bw, c.bw+1
	i := 0
	for ; bw >= 3 && i+3 < n; i += 4 {
		// Row i+a holds column k at offset k-i-a+bw; every row covers
		// columns kc..i-1.
		kc := max(i+3-bw, 0)
		r0 := c.ab[i*w : (i+1)*w]
		r1 := c.ab[(i+1)*w : (i+2)*w]
		r2 := c.ab[(i+2)*w : (i+3)*w]
		r3 := c.ab[(i+3)*w : (i+4)*w]
		s0, s1, s2, s3 := x[i], x[i+1], x[i+2], x[i+3]
		lo0, lo1 := max(i-bw, 0), max(i+1-bw, 0)
		for k, v := range r0[lo0-i+bw : kc-i+bw] {
			s0 -= v * x[lo0+k]
		}
		for k, v := range r1[lo1-i-1+bw : kc-i-1+bw] {
			s1 -= v * x[lo1+k]
		}
		if lo2 := max(i+2-bw, 0); lo2 < kc {
			s2 -= r2[lo2-i-2+bw] * x[lo2]
		}
		xs := x[kc:i]
		a0 := r0[kc-i+bw : bw][:len(xs)]
		a1 := r1[kc-i-1+bw : bw-1][:len(xs)]
		a2 := r2[kc-i-2+bw : bw-2][:len(xs)]
		a3 := r3[kc-i-3+bw : bw-3][:len(xs)]
		for k, v := range xs {
			s0 -= a0[k] * v
			s1 -= a1[k] * v
			s2 -= a2[k] * v
			s3 -= a3[k] * v
		}
		x0 := s0 / r0[bw]
		s1 -= r1[bw-1] * x0
		x1 := s1 / r1[bw]
		s2 -= r2[bw-2] * x0
		s2 -= r2[bw-1] * x1
		x2 := s2 / r2[bw]
		s3 -= r3[bw-3] * x0
		s3 -= r3[bw-2] * x1
		s3 -= r3[bw-1] * x2
		x[i], x[i+1], x[i+2], x[i+3] = x0, x1, x2, s3/r3[bw]
	}
	for ; i < n; i++ {
		lo := max(i-bw, 0)
		row := c.ab[i*w+lo-i+bw : i*w+bw]
		xs := x[lo:i]
		xs = xs[:len(row)]
		s := x[i]
		for k, v := range row {
			s -= v * xs[k]
		}
		x[i] = s / c.ab[i*w+bw]
	}
}

// backward solves L' x = y in place. It reads L by columns, a stride of
// bw+1 per element: a transposed copy of the factor would make the reads
// contiguous, but would double the factor's memory.
func (c *BandCholesky) backward(x []float64) {
	n, bw, w := c.n, c.bw, c.bw+1
	for i := n - 1; i >= 0; i-- {
		hi := min(i+bw, n-1)
		s := x[i]
		for k := i + 1; k <= hi; k++ {
			s -= c.ab[k*w+i-k+bw] * x[k]
		}
		x[i] = s / c.ab[i*w+bw]
	}
}

// unitBlock is the number of unit columns SolveUnits carries through
// the band at once. Wider blocks read each element of L for more
// columns; narrower ones keep the block's rows near the cache.
// BenchmarkBandSolveUnits/rank=288 (full-cover network, n = 1280,
// bandwidth 189, Intel Xeon, 2 CPUs, shared host) read medians of 87,
// 91 and 82 ms for widths 8, 16 and 32 over eight interleaved runs
// each, and 64 was no faster than 32 in an earlier round: 32 it is.
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
			r.Histogram("sparse.band.solve_units_ns").Observe(clampNS(r.Now() - start))
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

// forwardBlock is forward on nb interleaved columns (x[i*nb+col] is row
// i of column col, nb a multiple of eight) that are zero above row
// first. Every column sees the operations of forward in the same order;
// the skipped rows and terms would subtract exact zeros from the
// initial value, leaving it as is. Eight columns at a time are summed
// in registers.
func (c *BandCholesky) forwardBlock(x []float64, nb, first int) {
	n, bw, w := c.n, c.bw, c.bw+1
	for i := first; i < n; i++ {
		lo := max(i-bw, first)
		row := c.ab[i*w+lo-i+bw : i*w+bw]
		piv := c.ab[i*w+bw]
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
	n, bw, w := c.n, c.bw, c.bw+1
	for i := n - 1; i >= 0; i-- {
		hi := min(i+bw, n-1)
		piv := c.ab[i*w+bw]
		for col := 0; col < nb; col += 8 {
			xi := (*[8]float64)(x[i*nb+col:])
			s0, s1, s2, s3, s4, s5, s6, s7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
			p := (i+1)*nb + col
			// L[k][i] sits at ab[k*w+i-k+bw] = ab[(k+1)*bw+i]: a stride
			// of bw per row k. The loop counts rows, not offsets: with
			// bw = 0 every offset is the same.
			q := (i+2)*bw + i
			for k := i + 1; k <= hi; k++ {
				v := c.ab[q]
				q += bw
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

// IsPositiveDefiniteBand reports whether the symmetric matrix a is
// positive definite via a banded factorization attempt. This is the
// paper's Cholesky-based PD test, made O(n*bw^2) by band storage.
func IsPositiveDefiniteBand(a *CSR) bool {
	_, err := NewBandCholesky(a)
	return err == nil
}
