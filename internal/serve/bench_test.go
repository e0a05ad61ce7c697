package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tecopt/internal/core"
)

// BenchmarkRunSweep times a /v1/sweep request on a warm system: 1,000
// h_kl points on Alpha with seven TECs (SMW rank 14), through the
// service handler from body to encoded response, without a network.
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
	h := s.Handler()
	sweep := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sweep()
	}
}
