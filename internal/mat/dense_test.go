package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if !num.IsZero(m.At(i, j)) {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if !num.ExactEqual(m.At(0, 1), 2) || !num.ExactEqual(m.At(1, 0), 3) {
		t.Fatalf("unexpected contents: %v", m)
	}
}

func TestNewDenseFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewDenseFrom([][]float64{{1, 2}, {3}})
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); !num.ExactEqual(got, 7) {
		t.Fatalf("At(0,1) = %v, want 7", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !num.ExactEqual(id.At(i, j), want) {
				t.Errorf("I(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestDiagonal(t *testing.T) {
	d := Diagonal([]float64{1, -2, 3})
	if !num.ExactEqual(d.At(1, 1), -2) || !num.IsZero(d.At(0, 1)) {
		t.Fatalf("unexpected diagonal matrix: %v", d)
	}
}

func TestRowColClone(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	col := m.Col(2)
	if !EqualVec(row, []float64{4, 5, 6}, 0) {
		t.Errorf("Row(1) = %v", row)
	}
	if !EqualVec(col, []float64{3, 6}, 0) {
		t.Errorf("Col(2) = %v", col)
	}
	// Mutating copies must not affect the original.
	row[0] = 99
	col[0] = 99
	if !num.ExactEqual(m.At(1, 0), 4) || !num.ExactEqual(m.At(0, 2), 3) {
		t.Error("Row/Col returned aliases, want copies")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if !num.ExactEqual(m.At(0, 0), 1) {
		t.Error("Clone returned alias")
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 0) {
		t.Fatalf("a*b = %v, want %v", got, want)
	}
}

func TestMulRectangular(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 0, 2}})     // 1x3
	b := NewDenseFrom([][]float64{{1}, {2}, {3}}) // 3x1
	got := a.Mul(b)
	if got.Rows() != 1 || got.Cols() != 1 || !num.ExactEqual(got.At(0, 0), 7) {
		t.Fatalf("got %v", got)
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 0}, {1, 3}})
	got := a.MulVec([]float64{4, 5})
	if !EqualVec(got, []float64{8, 19}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || !num.ExactEqual(at.At(2, 0), 3) || !num.ExactEqual(at.At(0, 1), 4) {
		t.Fatalf("transpose wrong: %v", at)
	}
}

func TestAddSubAxpyScale(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{10, 20}, {30, 40}})
	if got := b.SubMat(a).At(0, 0); !num.ExactEqual(got, 9) {
		t.Errorf("SubMat = %v, want 9", got)
	}
	if got := a.Clone().Scale(3).At(1, 0); !num.ExactEqual(got, 9) {
		t.Errorf("Scale = %v, want 9", got)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := NewDenseFrom([][]float64{{1, 2}, {2, 5}})
	asym := NewDenseFrom([][]float64{{1, 2}, {3, 5}})
	if !sym.IsSymmetric(0) {
		t.Error("sym reported asymmetric")
	}
	if asym.IsSymmetric(1e-9) {
		t.Error("asym reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewDenseFrom([][]float64{{-7, 2}, {3, 5}})
	if got := a.MaxAbs(); !num.ExactEqual(got, 7) {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

// Property: (A*B)' == B' * A' for random matrices.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randomDense(rng, r, k), randomDense(rng, k, c)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		return lhs.Equal(rhs, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: A*(x+y) == A*x + A*y.
func TestMulVecLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomDense(rng, r, c)
		x, y := randomVec(rng, c), randomVec(rng, c)
		xy := make([]float64, c)
		for i := range xy {
			xy[i] = x[i] + y[i]
		}
		lhs := a.MulVec(xy)
		rhs := a.MulVec(x)
		Axpy(1, a.MulVec(y), rhs)
		return EqualVec(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestString(t *testing.T) {
	s := NewDenseFrom([][]float64{{1, 2}}).String()
	if s == "" || math.IsNaN(1) {
		t.Fatal("String returned empty")
	}
}
