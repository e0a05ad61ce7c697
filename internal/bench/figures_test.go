package bench

import (
	"math"
	"strings"
	"testing"

	"tecopt/internal/obs"
)

func TestRunFigure6Shape(t *testing.T) {
	skipIfRace(t)
	res, err := RunFigure6Opts(Figure6Options{Points: 12})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.LambdaM, 1) || res.LambdaM <= 0 {
		t.Fatalf("lambda_m = %v", res.LambdaM)
	}
	if len(res.Currents) != 12 || len(res.Hkl) != 12 || len(res.PeakC) != 12 {
		t.Fatalf("series lengths wrong: %d %d %d", len(res.Currents), len(res.Hkl), len(res.PeakC))
	}
	// Figure 6's properties: nonnegative everywhere, divergence at the
	// end of the sweep.
	for n, h := range res.Hkl {
		if !math.IsInf(h, 1) && h < 0 {
			t.Fatalf("h_kl(%g) = %v < 0", res.Currents[n], h)
		}
	}
	first, last := res.Hkl[0], res.Hkl[len(res.Hkl)-1]
	if !(last > 50*first) {
		t.Fatalf("no divergence: h(0)=%v, h(near lambda)=%v", first, last)
	}
	// Currents strictly increasing and below lambda_m.
	for n := 1; n < len(res.Currents); n++ {
		if res.Currents[n] <= res.Currents[n-1] {
			t.Fatal("currents not increasing")
		}
	}
	if res.Currents[len(res.Currents)-1] >= res.LambdaM {
		t.Fatal("sample at or beyond lambda_m")
	}
	out := FormatFigure6(res)
	if !strings.Contains(out, "lambda_m") || !strings.Contains(out, "*") {
		t.Error("formatted figure incomplete")
	}
}

// TestFigure6SearchesLambdaOnce: the runaway limit Figure 6 sweeps
// toward is the one the greedy deployment's current optimization
// searched, not a second search on the same System.
func TestFigure6SearchesLambdaOnce(t *testing.T) {
	withRegistry(t, func(r *obs.Registry) {
		if _, err := RunFigure6Opts(Figure6Options{Points: 4}); err != nil {
			t.Fatal(err)
		}
		if n := r.Counter("core.runaway.searches").Value(); n != 1 {
			t.Errorf("core.runaway.searches = %d, want 1", n)
		}
	})
}

func TestRunFigure7Map(t *testing.T) {
	skipIfRace(t)
	res, err := RunFigure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("no deployment")
	}
	gridPart := res.Map[:strings.Index(res.Map, "legend:")]
	if strings.Count(gridPart, "#") != len(res.Sites) {
		t.Fatalf("map markers %d != sites %d", strings.Count(gridPart, "#"), len(res.Sites))
	}
	// The paper's Figure 7(b): covered tiles lie over the high-density
	// integer cluster (rows 8-9 of the grid).
	for _, s := range res.Sites {
		row := s / 12
		if row < 7 || row > 10 {
			t.Errorf("TEC site %d (row %d) far from the hot cluster", s, row)
		}
	}
}

func TestRunValidationBounds(t *testing.T) {
	skipIfRace(t)
	res, err := RunValidation()
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstDiffC > 1.5 {
		t.Errorf("matched-granularity diff %.3f C exceeds the paper's 1.5 C", res.WorstDiffC)
	}
	if res.FineWorstDiffC > 4.0 {
		t.Errorf("fine-grid diff %.3f C beyond documented envelope", res.FineWorstDiffC)
	}
	if res.ReferenceNodes < 1000 {
		t.Errorf("reference model suspiciously small: %d nodes", res.ReferenceNodes)
	}
}

func TestSketchHandlesDegenerateInput(t *testing.T) {
	if s := sketch(nil, nil, 5, 10); s != "" {
		t.Error("empty input produced a sketch")
	}
	// Constant series: no range.
	if s := sketch([]float64{1, 2}, []float64{3, 3}, 5, 10); s != "" {
		t.Error("flat series produced a sketch")
	}
}
