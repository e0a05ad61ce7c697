package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
)

func TestBuilderDuplicatesSummed(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 1, -1)
	m := b.Build()
	if got := m.At(0, 1); !num.ExactEqual(got, 5) {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 1); !num.ExactEqual(got, -1) {
		t.Fatalf("At(1,1) = %v, want -1", got)
	}
	if got := m.At(0, 0); !num.IsZero(got) {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilderCancellationDropped(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 1)
	b.Add(0, 0, -1)
	m := b.Build()
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0 after exact cancellation", m.NNZ())
	}
}

func TestBuilderZeroIgnored(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 0)
	if len(b.entries) != 0 {
		t.Fatal("zero entry was stored")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Add(2, 0, 1)
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddSym(0, 2, -4)
	b.AddSym(1, 1, 7)
	m := b.Build()
	if !num.ExactEqual(m.At(0, 2), -4) || !num.ExactEqual(m.At(2, 0), -4) {
		t.Error("AddSym did not mirror off-diagonal")
	}
	if !num.ExactEqual(m.At(1, 1), 7) {
		t.Error("AddSym double-counted the diagonal")
	}
}

func TestMulVec(t *testing.T) {
	// [2 0 1; 0 3 0; 1 0 4]
	b := NewBuilder(3, 3)
	b.AddSym(0, 0, 2)
	b.AddSym(1, 1, 3)
	b.AddSym(2, 2, 4)
	b.AddSym(0, 2, 1)
	m := b.Build()
	got := m.MulVec([]float64{1, 2, 3})
	want := []float64{5, 6, 13}
	for i := range want {
		if !num.ExactEqual(got[i], want[i]) {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestDiag(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(2, 2, 9)
	b.Add(0, 1, 5)
	d := b.Build().Diag()
	want := []float64{1, 0, 9}
	for i := range want {
		if !num.ExactEqual(d[i], want[i]) {
			t.Fatalf("Diag = %v, want %v", d, want)
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddSym(0, 1, -1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	if !b.Build().IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	b2 := NewBuilder(2, 2)
	b2.Add(0, 1, 1)
	if b2.Build().IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

// permute returns P A P' for the symmetric permutation perm, where
// perm[old] = new.
func permute(a *CSR, perm []int) *CSR {
	b := NewBuilder(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.RowNNZ(i)
		for k, j := range cols {
			b.Add(perm[i], perm[j], vals[k])
		}
	}
	return b.Build()
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 8, 0.4)
	perm := []int{3, 1, 0, 2, 7, 6, 5, 4}
	p := permute(a, perm)
	// a_ij must equal p_{perm[i],perm[j]}.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(a.At(i, j)-p.At(perm[i], perm[j])) > 1e-15 {
				t.Fatalf("permute mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestAddScaledDiag(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.Add(0, 1, -0.5)
	a := b.Build()
	out := a.AddScaledDiag(-2, []float64{3, 0})
	if got := out.At(0, 0); !num.ExactEqual(got, -5) {
		t.Fatalf("At(0,0) = %v, want -5", got)
	}
	if got := out.At(1, 1); !num.ExactEqual(got, 1) {
		t.Fatalf("At(1,1) = %v, want 1", got)
	}
	if got := out.At(0, 1); !num.ExactEqual(got, -0.5) {
		t.Fatalf("off-diagonal changed: %v", got)
	}
}

// randomSPD builds a random sparse SPD matrix: weighted graph Laplacian
// plus positive diagonal shifts.
func randomSPD(rng *rand.Rand, n int, density float64) *CSR {
	b := NewBuilder(n, n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		w := 0.1 + rng.Float64()
		b.AddSym(u, v, -w)
		b.Add(u, u, w)
		b.Add(v, v, w)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				w := 0.1 + rng.Float64()
				b.AddSym(i, j, -w)
				b.Add(i, i, w)
				b.Add(j, j, w)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 0.1+rng.Float64())
	}
	return b.Build()
}

// Property: CSR At agrees with a dense shadow built from the same triplets.
func TestCSRAtMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		b := NewBuilder(n, n)
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.NormFloat64()
			b.Add(i, j, v)
			dense[i][j] += v
		}
		m := b.Build()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(m.At(i, j)-dense[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
