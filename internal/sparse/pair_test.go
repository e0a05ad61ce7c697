package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The pair read (Pair, then Entry) must give, for every k, what Correct
// leaves in y[k] to 1e-12 relative to the largest entry, and leave y as
// it was: on the greedy-sized and full-cover ranks of the paper's
// network (14 runs the four-row product and its tail, 288 only the
// groups of four), at three shifts up to the edge of the SMW regime.
// The two sum the same poles in different orders, so they agree to
// rounding, not bitwise.
func TestPairReadMatchesCorrect(t *testing.T) {
	for _, rank := range []int{14, 288} {
		t.Run(fmt.Sprintf("rank=%d", rank), func(t *testing.T) {
			ls := newLayerSystem(t, rank)
			s := ls.smw(t, ls.factor(t))
			if s.Rank() != rank {
				t.Fatalf("rank %d, want %d", s.Rank(), rank)
			}
			rng := rand.New(rand.NewSource(int64(rank)))
			y := make([]float64, len(ls.d))
			for k := range y {
				y[k] = rng.NormFloat64()
			}
			before := append([]float64(nil), y...)
			for _, frac := range []float64{0.1, 0.5, 0.999} {
				i := frac * s.Lambda()
				want := append([]float64(nil), y...)
				if err := s.Correct(i, want); err != nil {
					t.Fatalf("Correct at %g*lambda: %v", frac, err)
				}
				var scale float64
				for _, w := range want {
					scale = math.Max(scale, math.Abs(w))
				}
				for k, w := range want {
					z, err := s.Pair(k, y)
					if err != nil {
						t.Fatalf("Pair(%d): %v", k, err)
					}
					got, err := s.Entry(i, y[k], z)
					if err != nil {
						t.Fatalf("Entry at %g*lambda, k = %d: %v", frac, k, err)
					}
					if math.Abs(got-w) > 1e-12*scale {
						t.Fatalf("%g*lambda, k = %d: pair read %v, Correct %v", frac, k, got, w)
					}
				}
			}
			for k := range y {
				if math.Float64bits(y[k]) != math.Float64bits(before[k]) {
					t.Fatalf("the pair read modified y[%d]", k)
				}
			}
		})
	}
}
