package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/mat"
	"tecopt/internal/num"
)

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := mat.NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := SymEig(a, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("values = %v, want [1 3]", vals)
	}
	// Eigenvector check: A v = lambda v.
	for j := 0; j < 2; j++ {
		v := vecs.Col(j)
		av := a.MulVec(v)
		for i := range v {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-12 {
				t.Fatalf("A v != lambda v for pair %d", j)
			}
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := mat.Diagonal([]float64{5, -2, 7, 0})
	vals, _, err := SymEig(a, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 0, 5, 7}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
}

func TestSymEigEmptyAndNonSquare(t *testing.T) {
	if vals, _, err := SymEig(mat.NewDense(0, 0), false); err != nil || len(vals) != 0 {
		t.Fatalf("empty: %v %v", vals, err)
	}
	if _, _, err := SymEig(mat.NewDense(2, 3), false); err == nil {
		t.Fatal("non-square accepted")
	}
}

// Property: eigenvalues of random symmetric matrices satisfy trace and
// residual identities, and eigenvectors are orthonormal.
func TestSymEigRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEig(a, true)
		if err != nil {
			return false
		}
		// Trace identity.
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		for _, v := range vals {
			sum += v
		}
		if math.Abs(trace-sum) > 1e-8*(1+math.Abs(trace)) {
			return false
		}
		// Residuals and orthonormality.
		for j := 0; j < n; j++ {
			v := vecs.Col(j)
			av := a.MulVec(v)
			for i := range v {
				if math.Abs(av[i]-vals[j]*v[i]) > 1e-7*(1+math.Abs(vals[j])) {
					return false
				}
			}
			if math.Abs(mat.Norm2(v)-1) > 1e-8 {
				return false
			}
			for k := j + 1; k < n; k++ {
				if math.Abs(mat.Dot(v, vecs.Col(k))) > 1e-7 {
					return false
				}
			}
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPowerIterationDominant(t *testing.T) {
	a := mat.NewDenseFrom([][]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	})
	op := func(x []float64) []float64 { return a.MulVec(x) }
	lambda, vec, err := PowerIteration(op, 3, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, _ := SymEig(a, false)
	want := vals[len(vals)-1]
	if math.Abs(lambda-want) > 1e-8 {
		t.Fatalf("power iteration %v, dense %v", lambda, want)
	}
	if math.Abs(mat.Norm2(vec)-1) > 1e-9 {
		t.Fatal("eigenvector not normalized")
	}
}

func TestPowerIterationZeroOperator(t *testing.T) {
	op := func(x []float64) []float64 { return make([]float64, len(x)) }
	lambda, _, err := PowerIteration(op, 4, 1e-10, 0)
	if err != nil || !num.IsZero(lambda) {
		t.Fatalf("lambda=%v err=%v, want 0,nil", lambda, err)
	}
}

// BenchmarkEigenSym times SymEig with vectors on a seeded symmetric
// positive definite matrix, B B' + m I: m = 36 is the SMW rank of a
// mid-size greedy deployment, m = 288 that of a full cover.
func BenchmarkEigenSym(b *testing.B) {
	for _, m := range []int{36, 288} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			bm := mat.NewDense(m, m)
			for i := 0; i < m; i++ {
				for k := range bm.RawRow(i) {
					bm.RawRow(i)[k] = 2*rng.Float64() - 1
				}
			}
			a := bm.Mul(bm.T())
			for i := 0; i < m; i++ {
				a.Add(i, i, float64(m))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if _, _, err := SymEig(a, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
