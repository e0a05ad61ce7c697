package mat

import (
	"math"
	"testing"

	"tecopt/internal/num"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); !num.ExactEqual(got, 32) {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); !num.IsZero(got) {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Overflow-resistant accumulation.
	huge := []float64{1e200, 1e200}
	if got := Norm2(huge); math.IsInf(got, 1) {
		t.Fatal("Norm2 overflowed for large entries")
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{-9, 2, 5}); !num.ExactEqual(got, 9) {
		t.Fatalf("NormInf = %v, want 9", got)
	}
}

func TestMaxMin(t *testing.T) {
	v := []float64{3, -1, 7, 7, 2}
	mx, i := Max(v)
	if !num.ExactEqual(mx, 7) || i != 2 {
		t.Errorf("Max = (%v,%d), want (7,2)", mx, i)
	}
	mn, j := Min(v)
	if !num.ExactEqual(mn, -1) || j != 1 {
		t.Errorf("Min = (%v,%d), want (-1,1)", mn, j)
	}
}

func TestMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Max(nil)
}

func TestSumAxpyScaleFill(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); !num.ExactEqual(got, 6.5) {
		t.Errorf("Sum = %v", got)
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if !EqualVec(y, []float64{7, 9}, 0) {
		t.Errorf("Axpy = %v", y)
	}
	ScaleVec(0.5, y)
	if !EqualVec(y, []float64{3.5, 4.5}, 0) {
		t.Errorf("ScaleVec = %v", y)
	}
}

func TestUnit(t *testing.T) {
	e := Unit(4, 2)
	if !EqualVec(e, []float64{0, 0, 1, 0}, 0) {
		t.Fatalf("Unit = %v", e)
	}
}

func TestUnitOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Unit(3, 3)
}

func TestEqualVec(t *testing.T) {
	if !EqualVec([]float64{1, 2}, []float64{1.0000001, 2}, 1e-5) {
		t.Error("EqualVec too strict")
	}
	if EqualVec([]float64{1}, []float64{1, 2}, 1) {
		t.Error("EqualVec ignored length mismatch")
	}
}
