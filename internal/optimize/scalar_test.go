package optimize

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 1.3) * (x - 1.3) }
	res, err := GoldenSection(f, -10, 10, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-1.3) > 1e-8 {
		t.Fatalf("X = %v, want 1.3", res.X)
	}
	if !res.Converged {
		t.Error("not converged")
	}
}

func TestGoldenSectionBoundaryMinimum(t *testing.T) {
	// Monotone increasing: minimum at the left edge.
	res, err := GoldenSection(func(x float64) float64 { return x }, 2, 5, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-2) > 1e-8 {
		t.Fatalf("X = %v, want 2", res.X)
	}
}

func TestGoldenSectionBadBracket(t *testing.T) {
	if _, err := GoldenSection(math.Sin, 3, 3, 1e-9, 0); !errors.Is(err, ErrInvalidBracket) {
		t.Fatalf("err = %v, want ErrInvalidBracket", err)
	}
}

func TestGoldenSectionMaxIter(t *testing.T) {
	_, err := GoldenSection(func(x float64) float64 { return x * x }, -1e9, 1e9, 1e-15, 3)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
}

func TestBrentQuartic(t *testing.T) {
	f := func(x float64) float64 { return math.Pow(x+0.7, 4) + 2 }
	res, err := Brent(f, -5, 5, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X+0.7) > 1e-4 {
		t.Fatalf("X = %v, want -0.7", res.X)
	}
	if math.Abs(res.F-2) > 1e-9 {
		t.Fatalf("F = %v, want 2", res.F)
	}
}

func TestBrentMatchesGoldenSection(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) - 2*x } // min at ln 2
	g, err1 := GoldenSection(f, 0, 3, 1e-10, 0)
	b, err2 := Brent(f, 0, 3, 1e-10, 0)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if math.Abs(g.X-b.X) > 1e-6 || math.Abs(g.X-math.Ln2) > 1e-6 {
		t.Fatalf("golden %v vs brent %v, want ln2=%v", g.X, b.X, math.Ln2)
	}
}

func TestBrentBadBracket(t *testing.T) {
	if _, err := Brent(math.Sin, 1, 1, 1e-9, 0); !errors.Is(err, ErrInvalidBracket) {
		t.Fatalf("err = %v, want ErrInvalidBracket", err)
	}
}

func TestGradientDescentConvex(t *testing.T) {
	f := func(x float64) float64 { return (x - 2) * (x - 2) }
	res, err := GradientDescent(f, GradientDescentOptions{Lo: 0, Hi: 10, X0: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-2) > 1e-6 {
		t.Fatalf("X = %v, want 2", res.X)
	}
}

func TestGradientDescentAnalyticGrad(t *testing.T) {
	f := func(x float64) float64 { return x*x*x*x - 3*x }
	g := func(x float64) float64 { return 4*x*x*x - 3 }
	res, err := GradientDescent(f, GradientDescentOptions{Lo: 0, Hi: 2, X0: 2, Grad: g})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cbrt(0.75)
	if math.Abs(res.X-want) > 1e-6 {
		t.Fatalf("X = %v, want %v", res.X, want)
	}
}

func TestGradientDescentProjectsToBoundary(t *testing.T) {
	// Unconstrained minimum at -3, feasible set [0, 5]: expect X ~ 0.
	f := func(x float64) float64 { return (x + 3) * (x + 3) }
	res, err := GradientDescent(f, GradientDescentOptions{Lo: 0, Hi: 5, X0: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.X > 1e-6 {
		t.Fatalf("X = %v, want 0 (projected)", res.X)
	}
}

func TestGradientDescentBadBracket(t *testing.T) {
	if _, err := GradientDescent(math.Sin, GradientDescentOptions{Lo: 2, Hi: 1}); !errors.Is(err, ErrInvalidBracket) {
		t.Fatalf("err = %v, want ErrInvalidBracket", err)
	}
}

func TestBinarySearchBoundary(t *testing.T) {
	// pred true below 3.7.
	got, err := BinarySearchBoundary(func(x float64) bool { return x < 3.7 }, 0, 100, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.7) > 1e-9 {
		t.Fatalf("boundary = %v, want 3.7", got)
	}
}

func TestBinarySearchBoundaryWholeRangeTrue(t *testing.T) {
	got, err := BinarySearchBoundary(func(x float64) bool { return true }, 0, 5, 1e-12, 0)
	if err != nil || !num.ExactEqual(got, 5) {
		t.Fatalf("got %v err %v, want 5", got, err)
	}
}

func TestBinarySearchBoundaryPredFalseAtLo(t *testing.T) {
	if _, err := BinarySearchBoundary(func(x float64) bool { return false }, 0, 1, 1e-9, 0); !errors.Is(err, ErrInvalidBracket) {
		t.Fatalf("err = %v, want ErrInvalidBracket", err)
	}
}

// Property: golden-section and gradient descent find the same minimizer of
// random positive-definite quadratics — the paper's two candidate current
// optimizers must agree.
func TestOptimizersAgreeOnQuadraticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.1 + rng.Float64()*5
		c := rng.Float64() * 10 // minimizer inside [0, 20]
		obj := func(x float64) float64 { return a * (x - c) * (x - c) }
		g, err1 := GoldenSection(obj, 0, 20, 1e-10, 0)
		d, err2 := GradientDescent(obj, GradientDescentOptions{Lo: 0, Hi: 20, X0: 20 * rng.Float64()})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(g.X-c) < 1e-6 && math.Abs(d.X-c) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
