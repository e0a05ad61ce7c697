package sparse

import (
	"math"
	"slices"

	"tecopt/internal/faults"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// Cholesky is a sparse Cholesky factorization P A P' = L L' of a
// symmetric positive definite matrix A under a fill-reducing
// permutation P, typically MinDegree's. It stores only L's nonzeros,
// by columns, and solves in A's own ordering: the permutation is
// applied on the way in and undone on the way out. It is the workhorse
// behind every base solve of the SMW fast path and every direct
// factorization of G - i*D.
//
// The symbolic analysis finds L's pattern through the elimination tree
// (Liu 1986): the columns of L's row k are the row subtree that A's row
// k reaches in the tree. Appending each row to its columns in ascending
// order, and then each column to its rows, leaves both lists sorted in
// O(nnz(L)), with no comparison sort. The numeric factorization is
// left-looking: column j gathers A's column j and subtracts the columns
// k < j with L(j, k) nonzero, in ascending k.
//
// Every sum therefore runs in the order of the textbook (dense or fixed
// band) Cholesky factorization and substitutions of P A P', ascending,
// and skips only terms with a structural zero of L as a factor. Such a
// term subtracts ±0, which leaves a nonzero sum as it is, so every
// nonzero result is bitwise the textbook's in the same ordering; only
// the sign of a zero could differ.
//
// Metrics and errors keep the "sparse.band" prefix of the envelope
// factor this one replaced, because the repository benchmark reads the
// metric names.
type Cholesky struct {
	n    int
	perm []int // old -> new
	// Column j of L is at lx[cp[j]:cp[j+1]] with its row numbers at the
	// same positions of ri: the diagonal first, then ascending rows. The
	// first row below the diagonal is j's parent in the elimination
	// tree.
	cp []int
	ri []int32
	lx []float64
}

// ErrNotPositiveDefinite reports a failed Cholesky factorization: a
// pivot was not positive, or was NaN. It carries tecerr.CodeNotPD.
var ErrNotPositiveDefinite error = tecerr.New(tecerr.CodeNotPD, "sparse.band",
	"sparse: matrix is not positive definite")

// NewCholesky factors P A P' for the symmetric matrix a and the
// permutation perm (perm[old] = new), which it keeps: the caller must
// not modify perm afterwards. It returns ErrNotPositiveDefinite
// when a pivot is not positive, and a tecerr.CodeInvalidInput error for
// a non-square a or a perm that is not a permutation of its order.
// When observability is enabled the factorization time and outcome are
// reported under "sparse.band.*" (a failed attempt is a legitimate
// outcome: the runaway search may probe currents beyond lambda_m).
func NewCholesky(a *CSR, perm []int) (*Cholesky, error) {
	r := obs.Enabled()
	if r == nil {
		return newCholesky(a, perm)
	}
	start := r.Now()
	c, err := newCholesky(a, perm)
	r.Counter("sparse.band.factors").Inc()
	r.ObserveSince("sparse.band.factor_ns", start)
	if err != nil {
		r.Counter("sparse.band.factor_failures").Inc()
	}
	return c, err
}

// newCholesky is the uninstrumented factorization.
func newCholesky(a *CSR, perm []int) (*Cholesky, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: Cholesky needs a square matrix, have %dx%d", n, a.Cols())
	}
	if len(perm) != n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: Cholesky permutation length %d, want %d", len(perm), n)
	}
	// The inverse permutation (new -> old), checking perm on the way.
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for old, p := range perm {
		if p < 0 || p >= n || inv[p] >= 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
				"sparse: Cholesky permutation is not one: %d at %d", p, old)
		}
		inv[p] = old
	}
	c := &Cholesky{n: n, perm: perm}
	rp, rows := c.symbolic(a, inv)
	c.load(a, inv)
	// Chaos hook: perturb the loaded matrix entries before factoring.
	faults.Perturb(faults.SiteBandMatrix, c.lx)
	if err := c.factor(rp, rows); err != nil {
		return nil, err
	}
	return c, nil
}

// symbolic finds L's pattern: the elimination tree, then the row
// subtrees, which give L by rows, unsorted. Appending each row k to its
// columns in ascending k gives L by columns sorted, and appending each
// column to its rows the same way sorts the rows in place. It returns
// the rows: the columns k < j with L(j, k) nonzero are
// rows[rp[j]:rp[j+1]], ascending.
func (c *Cholesky) symbolic(a *CSR, inv []int) (rp []int, rows []int32) {
	n := c.n
	work := make([]int32, 2*n)
	parent, anc := work[:n], work[n:]
	// Elimination tree with path compression (Liu's algorithm): row k
	// links the root of each subtree it touches to k.
	for k := 0; k < n; k++ {
		parent[k], anc[k] = -1, -1
		for _, oc := range a.neighbours(inv[k]) {
			for i := c.perm[oc]; i < k; {
				next := anc[i]
				anc[i] = int32(k)
				if next < 0 {
					parent[i] = int32(k)
					break
				}
				i = int(next)
			}
		}
	}
	// Row k of L holds the row subtree: every node on the tree paths
	// from the columns of A's row k up to k, each visited once (mark[i]
	// == k once visited for row k).
	mark := anc
	for i := range mark {
		mark[i] = -1
	}
	rp = make([]int, n+1)
	rows = make([]int32, 0, 3*a.NNZ()) // room for a fill of twice A's entries
	for k := 0; k < n; k++ {
		mark[k] = int32(k)
		for _, oc := range a.neighbours(inv[k]) {
			for i := c.perm[oc]; i < k && mark[i] != int32(k); i = int(parent[i]) {
				mark[i] = int32(k)
				rows = append(rows, int32(i))
			}
		}
		rp[k+1] = len(rows)
	}
	c.cp = make([]int, n+1)
	count := c.cp[1:]
	for _, i := range rows {
		count[i]++
	}
	for j := 0; j < n; j++ {
		c.cp[j+1] += c.cp[j] + 1
	}
	c.ri = make([]int32, c.cp[n])
	next := parent // the tree is no longer needed
	for j := 0; j < n; j++ {
		c.ri[c.cp[j]] = int32(j)
		next[j] = int32(c.cp[j] + 1)
	}
	for k := 0; k < n; k++ {
		for _, i := range rows[rp[k]:rp[k+1]] {
			c.ri[next[i]] = int32(k)
			next[i]++
		}
	}
	for j := 0; j < n; j++ {
		next[j] = int32(rp[j])
	}
	for k := 0; k < n; k++ {
		for _, j := range c.ri[c.cp[k]+1 : c.cp[k+1]] {
			rows[next[j]] = int32(k)
			next[j]++
		}
	}
	return rp, rows
}

// load writes the lower triangle of P A P' into L's pattern.
func (c *Cholesky) load(a *CSR, inv []int) {
	pos := make([]int32, c.n) // row -> position in the current column
	c.lx = make([]float64, len(c.ri))
	for j := 0; j < c.n; j++ {
		for q := c.cp[j]; q < c.cp[j+1]; q++ {
			pos[c.ri[q]] = int32(q)
		}
		cols, vals := a.RowNNZ(inv[j])
		for t, oc := range cols {
			if i := c.perm[oc]; i >= j {
				c.lx[pos[i]] = vals[t]
			}
		}
	}
}

// factor overwrites the loaded values with L, column by column: column
// j scatters into a dense accumulator, subtracts the update of every
// column k in row j's list (ascending; all of column k from row j
// down), and is gathered back divided by its pivot. next[k] is the
// position of column k's next row, the row of the next column it
// updates, since both run in ascending order.
func (c *Cholesky) factor(rp []int, rows []int32) error {
	n := c.n
	next := make([]int, n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		c0, c1 := c.cp[j], c.cp[j+1]
		for q := c0; q < c1; q++ {
			x[c.ri[q]] = c.lx[q]
		}
		for _, k := range rows[rp[j]:rp[j+1]] {
			p := next[k]
			next[k] = p + 1
			ljk := c.lx[p]
			at, vals := c.ri[p:c.cp[k+1]], c.lx[p:c.cp[k+1]]
			at = at[:len(vals)]
			for t, v := range vals {
				x[at[t]] -= v * ljk
			}
		}
		d := x[j]
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		piv := math.Sqrt(d)
		c.lx[c0] = piv
		x[j] = 0
		for q := c0 + 1; q < c1; q++ {
			i := c.ri[q]
			c.lx[q] = x[i] / piv
			x[i] = 0
		}
		next[j] = c0 + 1
	}
	return nil
}

// NNZ returns the number of entries of L, its diagonal included.
func (c *Cholesky) NNZ() int { return len(c.lx) }

// Perm returns the permutation the factor was computed under (old ->
// new); the caller must not modify it.
func (c *Cholesky) Perm() []int { return c.perm }

// Solve solves A x = b. A wrong-length rhs is a tecerr.CodeInvalidInput
// error.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
			"sparse: Cholesky.Solve rhs length %d, want %d", len(b), c.n)
	}
	if r := obs.Enabled(); r != nil {
		start := r.Now()
		defer func() {
			r.Counter("sparse.band.solves").Inc()
			r.ObserveSince("sparse.band.solve_ns", start)
		}()
	}
	y := make([]float64, c.n)
	for i, p := range c.perm {
		y[p] = b[i]
	}
	// Forward, L y = P b, by columns: y_j is final once the columns
	// before it have been subtracted.
	for j := 0; j < c.n; j++ {
		c0, c1 := c.cp[j], c.cp[j+1]
		v := y[j] / c.lx[c0]
		y[j] = v
		rows, vals := c.ri[c0+1:c1], c.lx[c0+1:c1]
		rows = rows[:len(vals)]
		for t, l := range vals {
			y[rows[t]] -= l * v
		}
	}
	c.backward(y)
	x := make([]float64, c.n)
	for i, p := range c.perm {
		x[i] = y[p]
	}
	return x, nil
}

// backward solves L' x = y in place: row j of L' is column j of L.
func (c *Cholesky) backward(x []float64) {
	for j := c.n - 1; j >= 0; j-- {
		c0, c1 := c.cp[j], c.cp[j+1]
		s := x[j]
		rows, vals := c.ri[c0+1:c1], c.lx[c0+1:c1]
		rows = rows[:len(vals)]
		for t, l := range vals {
			s -= l * x[rows[t]]
		}
		x[j] = s / c.lx[c0]
	}
}

// unitBlock is the number of unit columns SolveUnits carries through
// the factor at once, interleaved row by row so each element of L read
// serves the whole block from registers.
const unitBlock = 8

// SolveUnits returns the columns A^{-1} e_k for the unit vectors e_k,
// k in idx, in idx order: W = G^{-1} U of an SMW setup. Each column is
// bitwise the Solve of its unit vector. The columns are sorted by their
// permuted row and solved unitBlock at a time. Forward substitution
// visits only the rows the block has reached: the nonzeros of L^{-1} e_k
// lie on the elimination-tree path from k's row to the root, and every
// other row would subtract ±0 from a value it leaves as it is. An index
// outside [0, n) is a tecerr.CodeInvalidInput error.
func (c *Cholesky) SolveUnits(idx []int) ([][]float64, error) {
	n := c.n
	for _, k := range idx {
		if k < 0 || k >= n {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "sparse.band",
				"sparse: Cholesky.SolveUnits index %d out of range %d", k, n)
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
	slices.SortStableFunc(order, func(a, b int) int { return c.perm[idx[a]] - c.perm[idx[b]] })
	out := make([][]float64, len(idx))
	cols := make([]float64, n*len(idx))
	x := make([]float64, n*unitBlock)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	var reached []int32
	for lo := 0; lo < len(order); lo += unitBlock {
		blk := order[lo:min(lo+unitBlock, len(order))]
		clear(x)
		reached = reached[:0]
		for col, j := range blk {
			k := c.perm[idx[j]]
			x[k*unitBlock+col] = 1
			for i := k; i >= 0 && seen[i] != int32(lo); i = c.parent(i) {
				seen[i] = int32(lo)
				reached = append(reached, int32(i))
			}
		}
		slices.Sort(reached)
		c.forwardBlock(x, reached)
		c.backwardBlock(x)
		for col, j := range blk {
			v := cols[j*n : (j+1)*n : (j+1)*n]
			for i, p := range c.perm {
				v[i] = x[p*unitBlock+col]
			}
			out[j] = v
		}
	}
	return out, nil
}

// parent returns j's parent in the elimination tree, or -1 at a root.
func (c *Cholesky) parent(j int) int {
	if q := c.cp[j] + 1; q < c.cp[j+1] {
		return int(c.ri[q])
	}
	return -1
}

// forwardBlock is Solve's forward pass on unitBlock interleaved columns
// (x[i*unitBlock+col] is row i of column col), over the given rows in
// ascending order. Every column sees Solve's operations in Solve's
// order on those rows.
func (c *Cholesky) forwardBlock(x []float64, rows []int32) {
	for _, j := range rows {
		c0, c1 := c.cp[j], c.cp[j+1]
		piv := c.lx[c0]
		xj := (*[unitBlock]float64)(x[int(j)*unitBlock:])
		v0, v1, v2, v3 := xj[0]/piv, xj[1]/piv, xj[2]/piv, xj[3]/piv
		v4, v5, v6, v7 := xj[4]/piv, xj[5]/piv, xj[6]/piv, xj[7]/piv
		xj[0], xj[1], xj[2], xj[3], xj[4], xj[5], xj[6], xj[7] = v0, v1, v2, v3, v4, v5, v6, v7
		at, vals := c.ri[c0+1:c1], c.lx[c0+1:c1]
		for t, l := range vals {
			xr := (*[unitBlock]float64)(x[int(at[t])*unitBlock:])
			xr[0] -= l * v0
			xr[1] -= l * v1
			xr[2] -= l * v2
			xr[3] -= l * v3
			xr[4] -= l * v4
			xr[5] -= l * v5
			xr[6] -= l * v6
			xr[7] -= l * v7
		}
	}
}

// backwardBlock is backward on unitBlock interleaved columns.
func (c *Cholesky) backwardBlock(x []float64) {
	for j := c.n - 1; j >= 0; j-- {
		c0, c1 := c.cp[j], c.cp[j+1]
		piv := c.lx[c0]
		xj := (*[unitBlock]float64)(x[j*unitBlock:])
		s0, s1, s2, s3 := xj[0], xj[1], xj[2], xj[3]
		s4, s5, s6, s7 := xj[4], xj[5], xj[6], xj[7]
		at, vals := c.ri[c0+1:c1], c.lx[c0+1:c1]
		for t, l := range vals {
			xr := (*[unitBlock]float64)(x[int(at[t])*unitBlock:])
			s0 -= l * xr[0]
			s1 -= l * xr[1]
			s2 -= l * xr[2]
			s3 -= l * xr[3]
			s4 -= l * xr[4]
			s5 -= l * xr[5]
			s6 -= l * xr[6]
			s7 -= l * xr[7]
		}
		xj[0], xj[1], xj[2], xj[3] = s0/piv, s1/piv, s2/piv, s3/piv
		xj[4], xj[5], xj[6], xj[7] = s4/piv, s5/piv, s6/piv, s7/piv
	}
}
