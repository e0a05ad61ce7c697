package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// CorrectEntry must return, for every k, bitwise what Correct leaves in
// y[k], and leave y as it was: on the greedy-sized and full-cover ranks
// of the paper's network (14 runs the four-row products and their tail,
// 288 only the groups of four), at three shifts up to the edge of the
// SMW regime.
func TestCorrectEntryMatchesCorrectBitwise(t *testing.T) {
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
				for k, w := range want {
					got, err := s.CorrectEntry(i, y, k)
					if err != nil {
						t.Fatalf("CorrectEntry at %g*lambda, k = %d: %v", frac, k, err)
					}
					if math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%g*lambda, k = %d: CorrectEntry %v, Correct %v", frac, k, got, w)
					}
				}
			}
			for k := range y {
				if math.Float64bits(y[k]) != math.Float64bits(before[k]) {
					t.Fatalf("CorrectEntry modified y[%d]", k)
				}
			}
		})
	}
}
