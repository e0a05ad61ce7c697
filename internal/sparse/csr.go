// Package sparse provides the sparse linear-algebra substrate for the
// thermal network solvers: CSR storage with matrix-vector products,
// filled by its owner through NewCSR or from COO triplets by a Builder,
// a preconditioned conjugate-gradient solver (Jacobi and
// incomplete-Cholesky preconditioners), and reverse Cuthill-McKee
// ordering. The compact model's G is stamped straight into CSR
// (thermal.Network.G); the Builder serves the fine-grid reference
// solver.
//
// The compact thermal model of a 12x12-tile package has a few hundred
// nodes, which the dense path in package mat handles easily; the
// fine-grid reference solver (internal/refsolver) discretizes the same
// package at 4-8x resolution and produces systems with tens of thousands
// of unknowns, which is where this package earns its keep.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"tecopt/internal/num"
)

// Coord is a single (row, col, value) assembly entry.
type Coord struct {
	Row, Col int
	Val      float64
}

// Builder accumulates COO triplets; duplicate coordinates are summed when
// the builder is compiled to CSR, which matches finite-volume stamping
// where several conductances contribute to one matrix entry.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	if num.IsZero(v) {
		return
	}
	b.entries = append(b.entries, Coord{i, j, v})
}

// AddSym accumulates v at (i, j) and (j, i); the diagonal is added once.
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// Build compiles the triplets into CSR form, summing duplicates and
// dropping entries that cancel to exactly zero.
func (b *Builder) Build() *CSR {
	es := make([]Coord, len(b.entries))
	copy(es, b.entries)
	sort.Slice(es, func(x, y int) bool {
		if es[x].Row != es[y].Row {
			return es[x].Row < es[y].Row
		}
		return es[x].Col < es[y].Col
	})
	rowPtr := make([]int, b.rows+1)
	colIdx := make([]int, 0, len(es))
	vals := make([]float64, 0, len(es))
	for k := 0; k < len(es); {
		r, c := es[k].Row, es[k].Col
		var s float64
		for k < len(es) && es[k].Row == r && es[k].Col == c {
			s += es[k].Val
			k++
		}
		if !num.IsZero(s) {
			colIdx = append(colIdx, c)
			vals = append(vals, s)
			rowPtr[r+1]++
		}
	}
	for i := 0; i < b.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR{rows: b.rows, cols: b.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// CSR is a compressed-sparse-row matrix. Within each row the columns
// ascend strictly, and no stored value is zero.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR returns the rows x cols matrix whose row i holds the columns
// colIdx[rowPtr[i]:rowPtr[i+1]] and the values at the same positions.
// The matrix keeps the three slices, so the caller must not modify them
// afterwards. It panics unless they keep the CSR's invariants: rowPtr
// has rows+1 entries that run from 0 to len(colIdx) == len(vals)
// without decreasing, each row's columns lie in [0, cols) and ascend
// strictly, and no value is zero.
func NewCSR(rows, cols int, rowPtr, colIdx []int, vals []float64) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) || len(vals) != len(colIdx) {
		panic(fmt.Sprintf("sparse: CSR arrays of %d row pointers, %d columns and %d values for %d rows",
			len(rowPtr), len(colIdx), len(vals), rows))
	}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			panic(fmt.Sprintf("sparse: row pointer decreases at row %d", i))
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := colIdx[k]
			if j <= prev || j >= cols {
				panic(fmt.Sprintf("sparse: row %d stores column %d after %d in a %dx%d matrix", i, j, prev, rows, cols))
			}
			if num.IsZero(vals[k]) {
				panic(fmt.Sprintf("sparse: stored zero at (%d,%d)", i, j))
			}
			prev = j
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the element at (i, j) — zero when not stored. O(log nnz_row).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// MulVec computes y = A x.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A x into a caller-provided slice.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %dx%d with x=%d y=%d", m.rows, m.cols, len(x), len(y)))
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// BackwardError returns the normwise backward error of x as a solution
// of a x = b: ||a x - b||_inf / (||a||_inf ||x||_inf + ||b||_inf), the
// smallest relative perturbation of a and b that x solves exactly
// (Rigal & Gaches 1967). A backward-stable solve keeps it at a few
// machine epsilons. It is 0 when the denominator is.
func BackwardError(a *CSR, x, b []float64) float64 {
	ax := a.MulVec(x)
	var res, norm, xn, bn float64
	for i := range ax {
		res = math.Max(res, math.Abs(ax[i]-b[i]))
		xn = math.Max(xn, math.Abs(x[i]))
		bn = math.Max(bn, math.Abs(b[i]))
		var row float64
		for _, v := range a.vals[a.rowPtr[i]:a.rowPtr[i+1]] {
			row += math.Abs(v)
		}
		norm = math.Max(norm, row)
	}
	den := norm*xn + bn
	if num.IsZero(den) {
		return 0
	}
	return res / den
}

// Diag returns a copy of the main diagonal.
func (m *CSR) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// RowNNZ returns the stored column indices and values of row i.
// The returned slices alias internal storage and must not be modified.
func (m *CSR) RowNNZ(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNNZ(i)
		for k, j := range cols {
			d := vals[k] - m.At(j, i)
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// AddScaledDiag returns A + s*DIAG(d) as a new CSR matrix. The cooling
// optimizer uses it to form G - i*D without re-stamping the network.
// It copies A's pattern and values and adds s*d_i into row i's
// diagonal, inserting the diagonal where the row has none and dropping
// one that cancels to exactly zero, as assembling the triplets of A and
// s*d would: a sum of two addends does not depend on their order, so
// every entry is bitwise the assembled one.
func (m *CSR) AddScaledDiag(s float64, d []float64) *CSR {
	if m.rows != m.cols || len(d) != m.rows {
		panic("sparse: AddScaledDiag dimension mismatch")
	}
	out := &CSR{
		rows: m.rows, cols: m.cols,
		rowPtr: make([]int, m.rows+1),
		colIdx: make([]int, 0, len(m.colIdx)),
		vals:   make([]float64, 0, len(m.vals)),
	}
	put := func(j int, v float64) {
		if !num.IsZero(v) {
			out.colIdx = append(out.colIdx, j)
			out.vals = append(out.vals, v)
		}
	}
	for i := 0; i < m.rows; i++ {
		var add float64
		if !num.IsZero(d[i]) {
			add = s * d[i]
		}
		pending := !num.IsZero(add)
		cols, vals := m.RowNNZ(i)
		for k, j := range cols {
			v := vals[k]
			if pending && j >= i {
				pending = false
				if j == i {
					v += add
				} else {
					put(i, add)
				}
			}
			put(j, v)
		}
		if pending {
			put(i, add)
		}
		out.rowPtr[i+1] = len(out.colIdx)
	}
	return out
}
