package mat

import (
	"fmt"
	"math"

	"tecopt/internal/num"
)

// Vector helpers. Thermal solvers pass temperature and power profiles as
// plain []float64; these free functions keep that code terse without a
// wrapper type.

// Dot returns the inner product x . y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for the huge temperatures that
	// appear when probing past the runaway limit.
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if num.IsZero(v) {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute entry of x (0 for empty slices).
func NormInf(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Max returns the maximum entry of x and its index.
// It panics for empty slices.
func Max(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("mat: Max of empty slice")
	}
	mx, idx := x[0], 0
	for i, v := range x[1:] {
		if v > mx {
			mx, idx = v, i+1
		}
	}
	return mx, idx
}

// Min returns the minimum entry of x and its index.
// It panics for empty slices.
func Min(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("mat: Min of empty slice")
	}
	mn, idx := x[0], 0
	for i, v := range x[1:] {
		if v < mn {
			mn, idx = v, i+1
		}
	}
	return mn, idx
}

// Sum returns the sum of all entries.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Unit returns the standard basis vector e_i of length n.
func Unit(n, i int) []float64 {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("mat: Unit index %d out of range %d", i, n))
	}
	e := make([]float64, n)
	e[i] = 1
	return e
}

// EqualVec reports whether x and y agree element-wise within tol.
func EqualVec(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i, v := range x {
		if math.Abs(v-y[i]) > tol {
			return false
		}
	}
	return true
}
