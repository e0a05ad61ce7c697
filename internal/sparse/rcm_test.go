package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
)

func TestRCMReducesBandwidthOnGrid(t *testing.T) {
	// A grid numbered in a scrambled order has terrible bandwidth; RCM
	// should restore something close to the natural nx bandwidth.
	nx, ny := 12, 12
	a := gridLaplacian(nx, ny)
	// Scramble with a random permutation first.
	rng := rand.New(rand.NewSource(9))
	scramble := rng.Perm(nx * ny)
	scrambled := permute(a, scramble)
	before := Bandwidth(scrambled)
	perm := RCM(scrambled)
	after := Bandwidth(permute(scrambled, perm))
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	if after > 3*nx {
		t.Fatalf("RCM bandwidth %d far above expected O(nx)=%d", after, nx)
	}
}

func TestRCMIsPermutation(t *testing.T) {
	a := gridLaplacian(7, 5)
	perm := RCM(a)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint 2-node components.
	b := NewBuilder(4, 4)
	b.AddSym(0, 1, -1)
	b.Add(0, 0, 1.5)
	b.Add(1, 1, 1.5)
	b.AddSym(2, 3, -1)
	b.Add(2, 2, 1.5)
	b.Add(3, 3, 1.5)
	perm := RCM(b.Build())
	seen := make([]bool, 4)
	for _, p := range perm {
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing from permutation %v", i, perm)
		}
	}
}

func TestInvertPerm(t *testing.T) {
	perm := []int{2, 0, 1}
	inv := InvertPerm(perm)
	for oldIdx, newIdx := range perm {
		if inv[newIdx] != oldIdx {
			t.Fatalf("InvertPerm wrong: %v -> %v", perm, inv)
		}
	}
}

func TestPermuteVec(t *testing.T) {
	x := []float64{10, 20, 30}
	perm := []int{2, 0, 1}
	got := PermuteVec(perm, x)
	want := []float64{20, 30, 10}
	for i := range want {
		if !num.ExactEqual(got[i], want[i]) {
			t.Fatalf("PermuteVec = %v, want %v", got, want)
		}
	}
}

// Property: solving the permuted system and permuting back gives the
// original solution.
func TestRCMSolveEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := randomSPD(rng, n, 0.2)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		direct, err := SolveCG(a, b, CGOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		perm := RCM(a)
		ap := permute(a, perm)
		bp := PermuteVec(perm, b)
		solved, err := SolveCG(ap, bp, CGOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		back := PermuteVec(InvertPerm(perm), solved.X)
		for i := range back {
			d := back[i] - direct.X[i]
			if d > 1e-6 || d < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
