package serve

import (
	"context"
	"encoding/json"
	"testing"

	"tecopt/internal/core"
)

// BenchmarkRunSweep times the /v1/sweep endpoint body on a warm
// system: 1,000 h_kl points on Alpha with seven TECs (SMW rank 14),
// decode to response, without HTTP.
func BenchmarkRunSweep(b *testing.B) {
	s := New(Options{})
	chip, sites := ChipSpec{Name: "alpha"}, []int{40, 41, 52, 53, 64, 65, 66}
	sys, err := s.resolveSystem(chip, sites)
	if err != nil {
		b.Fatal(err)
	}
	lambda, err := sys.RunawayLimit(core.RunawayOptions{})
	if err != nil {
		b.Fatal(err)
	}
	currents := make([]float64, 1000)
	for j := range currents {
		currents[j] = 0.999 * lambda * float64(j) / float64(len(currents))
	}
	body, err := json.Marshal(sweepRequest{common: common{Chip: chip, Sites: sites}, K: 40, L: 66, CurrentsA: currents})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.runSweep(ctx, body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := s.runSweep(ctx, body); err != nil {
			b.Fatal(err)
		}
	}
}
