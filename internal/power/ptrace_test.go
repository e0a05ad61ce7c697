package power

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tecopt/internal/floorplan"
	"tecopt/internal/num"
)

func TestPtraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Units: []string{"core", "l2"},
		Samples: [][]float64{
			{1.5, 0.25},
			{2.0, 0.5},
		},
	}
	var buf bytes.Buffer
	if err := WritePtrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePtrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Units) != 2 || back.Units[0] != "core" {
		t.Fatalf("units = %v", back.Units)
	}
	if len(back.Samples) != 2 || !num.ExactEqual(back.Samples[1][1], 0.5) {
		t.Fatalf("samples = %v", back.Samples)
	}
}

func TestParsePtraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"header only":    "core l2\n",
		"ragged row":     "core l2\n1.0\n",
		"bad number":     "core l2\n1.0 x\n",
		"negative power": "core l2\n1.0 -2\n",
	}
	for name, src := range cases {
		if _, err := ParsePtrace(strings.NewReader(src)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParsePtraceSkipsComments(t *testing.T) {
	src := "# comment\n\ncore l2\n# another\n1 2\n"
	tr, err := ParsePtrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 1 {
		t.Fatalf("samples = %d", len(tr.Samples))
	}
}

func TestWorstCase(t *testing.T) {
	tr := &Trace{
		Units: []string{"a", "b"},
		Samples: [][]float64{
			{1, 4},
			{3, 2},
		},
	}
	worst := tr.WorstCase(1.2)
	if math.Abs(worst["a"]-3.6) > 1e-12 || math.Abs(worst["b"]-4.8) > 1e-12 {
		t.Fatalf("worst = %v", worst)
	}
}

func TestSynthesizeTraceMatchesEnvelopePath(t *testing.T) {
	// The trace-driven path must reproduce the direct worst-case path:
	// synthesizing one sample per workload, the per-unit envelope with
	// the 20% margin must equal AlphaWorstCaseDensities * area.
	f, g := floorplan.Alpha21364Grid()
	m := NewAlphaModel()
	ws := SyntheticSPECWorkloads()
	tr := SynthesizeTrace(m, f, ws)
	if len(tr.Samples) != len(ws) {
		t.Fatalf("samples = %d, want %d", len(tr.Samples), len(ws))
	}
	viaTrace, err := TilePowersFromTrace(tr, f, g, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	direct := AlphaTilePowers(f, g)
	for i := range direct {
		if math.Abs(viaTrace[i]-direct[i]) > 1e-9*(1+direct[i]) {
			t.Fatalf("tile %d: trace %v vs direct %v", i, viaTrace[i], direct[i])
		}
	}
}

func TestTilePowersFromTraceUnknownUnit(t *testing.T) {
	f, g := floorplan.Alpha21364Grid()
	tr := &Trace{Units: []string{"nosuch"}, Samples: [][]float64{{1}}}
	if _, err := TilePowersFromTrace(tr, f, g, 1.2); err == nil {
		t.Fatal("unknown unit accepted")
	}
}

func TestWritePtraceRaggedSample(t *testing.T) {
	tr := &Trace{Units: []string{"a", "b"}, Samples: [][]float64{{1}}}
	var buf bytes.Buffer
	if err := WritePtrace(&buf, tr); err == nil {
		t.Fatal("ragged sample accepted")
	}
}
