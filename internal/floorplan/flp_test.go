package floorplan

import (
	"bytes"
	"strings"
	"testing"

	"tecopt/internal/num"
)

func TestWriteParseRoundTrip(t *testing.T) {
	f := Alpha21364()
	var buf bytes.Buffer
	if err := WriteFLP(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFLP("alpha21364", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Units) != len(f.Units) {
		t.Fatalf("unit count %d != %d", len(back.Units), len(f.Units))
	}
	near := func(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }
	for i, u := range f.Units {
		b := back.Units[i]
		if b.Name != u.Name || !near(b.X, u.X) || !near(b.Y, u.Y) || !near(b.W, u.W) || !near(b.H, u.H) {
			t.Fatalf("unit %d mismatch: %+v vs %+v", i, b, u)
		}
	}
	if err := back.Validate(1e-9); err != nil {
		t.Fatalf("round-tripped floorplan invalid: %v", err)
	}
}

func TestParseFLPCommentsAndBlank(t *testing.T) {
	src := `# a comment

core	0.5	1.0	0.0	0.0
io	0.5	1.0	0.5	0.0
`
	f, err := ParseFLP("test", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Units) != 2 {
		t.Fatalf("units = %d, want 2", len(f.Units))
	}
	if !num.ExactEqual(f.DieW, 1.0) || !num.ExactEqual(f.DieH, 1.0) {
		t.Fatalf("die inferred as %g x %g, want 1 x 1", f.DieW, f.DieH)
	}
}

func TestParseFLPErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "core 0.5 1.0 0.0\n",
		"bad number":     "core 0.5 1.0 zero 0.0\n",
		"empty":          "# nothing\n",
		"duplicate":      "a 1 1 0 0\na 1 1 0 0\n",
	}
	for name, src := range cases {
		if _, err := ParseFLP("t", strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAsciiMap(t *testing.T) {
	f, g := Alpha21364Grid()
	m := AsciiMap(f, g, map[int]bool{g.TileIndex(4, 8): true})
	lines := strings.Split(strings.TrimRight(m, "\n"), "\n")
	if len(lines) != 13 { // 12 rows + legend
		t.Fatalf("map lines = %d, want 13", len(lines))
	}
	for i := 0; i < 12; i++ {
		if len(lines[i]) != 12 {
			t.Fatalf("row %d width = %d, want 12", i, len(lines[i]))
		}
	}
	if !strings.Contains(m, "#") {
		t.Error("marked tile not rendered")
	}
	if !strings.Contains(lines[12], "IntReg") {
		t.Error("legend missing unit name")
	}
	// Row 8 is printed at line index 12-1-8 = 3; col 4 is '#'.
	if lines[3][4] != '#' {
		t.Errorf("marked tile not at expected position; line %q", lines[3])
	}
}
