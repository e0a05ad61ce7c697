package lint

import "testing"

func TestNameDim(t *testing.T) {
	cases := []struct {
		name  string
		dim   string
		known bool
	}{
		{"tempK", "K", true},
		{"limitK", "K", true},
		{"tilePowerW", "W", true},
		{"currentA", "A", true},
		{"maxBracketCurrentA", "A", true},
		{"dropV", "W/A", true},
		{"rOhm", "W/A^2", true},
		{"condWperK", "W/K", true},
		{"seebeckVperK", "W/(A*K)", true},
		{"WperK", "W/K", true},
		{"Seebeck", "W/(A*K)", true},
		{"Resistance", "W/A^2", true},
		{"Kappa", "W/K", true},
		{"thetaHot", "K", true},
		{"currents", "A", true},
		{"TilePower", "W", true},
		// Non-matches: uppercase before the token, bare tokens, and
		// names the vocabulary says nothing about.
		{"K", "", false},
		{"DVector", "", false},
		{"OK", "", false},
		{"count", "", false},
		{"tol", "", false},
	}
	for _, c := range cases {
		got := NameDim(c.name)
		if got.Known != c.known {
			t.Errorf("NameDim(%q).Known = %v, want %v", c.name, got.Known, c.known)
			continue
		}
		if c.known && got.Dim.String() != c.dim {
			t.Errorf("NameDim(%q) = %s, want %s", c.name, got.Dim, c.dim)
		}
	}
}

func TestDimAlgebra(t *testing.T) {
	v := Dim{W: 1, A: -1}
	k := Dim{K: 1}
	a := Dim{A: 1}
	// Peltier heat: S*T*I with S in V/K gives watts.
	w := v.Div(k).Mul(k).Mul(a)
	if (w != Dim{W: 1}) {
		t.Fatalf("V/K * K * A = %s, want W", w)
	}
	if !(Dim{}).IsDimensionless() || w.IsDimensionless() {
		t.Fatal("IsDimensionless misclassifies")
	}
	if got := (Dim{W: 1, A: -2}).String(); got != "W/A^2" {
		t.Fatalf("ohm String() = %q", got)
	}
	if got := (Dim{}).String(); got != "1" {
		t.Fatalf("dimensionless String() = %q", got)
	}
	if got := (Dim{K: -1}).String(); got != "1/K" {
		t.Fatalf("inverse-kelvin String() = %q", got)
	}
}

// summarize type-checks src and runs the summary pass, returning a
// lookup by function name.
func summarize(t *testing.T, src string) map[string]*FuncSummary {
	t.Helper()
	info, files, facts := checkSrc(t, src)
	facts.recordSummaries(info, files)
	out := make(map[string]*FuncSummary)
	facts.mu.Lock()
	for fn, s := range facts.summaries {
		out[fn.Name()] = s
	}
	facts.mu.Unlock()
	return out
}

func TestSummaryResultDimInference(t *testing.T) {
	sums := summarize(t, `package p
func rise(powerW, condWperK float64) float64 { return powerW / condWperK }
func named(q float64) (outK float64)         { return q }
func viaCall(powerW, condWperK float64) float64 { return 2 * rise(powerW, condWperK) }
`)
	if s := sums["rise"]; !s.Results[0].Known || s.Results[0].Dim.String() != "K" {
		t.Errorf("rise result = %+v, want inferred K", s.Results[0])
	}
	if s := sums["named"]; !s.Results[0].Known || s.Results[0].Dim.String() != "K" {
		t.Errorf("named result = %+v, want K from result name", s.Results[0])
	}
	if s := sums["viaCall"]; !s.Results[0].Known || s.Results[0].Dim.String() != "K" {
		t.Errorf("viaCall result = %+v, want K through callee summary", s.Results[0])
	}
}

func TestSummaryCanNaN(t *testing.T) {
	sums := summarize(t, `package p
import "math"
func raw(q float64) float64 { return math.Sqrt(q) }
func guarded(q float64) float64 {
	r := math.Sqrt(q)
	if math.IsNaN(r) { return 0 }
	return r
}
func caller(q float64) float64 { return raw(q) + 1 }
func callerGuards(q float64) float64 {
	v := raw(q)
	if math.IsInf(v, 0) { return 0 }
	return v
}
func nonFloat(q float64) error { _ = math.Sqrt(q); return nil }
`)
	for name, want := range map[string]bool{
		"raw": true, "guarded": false, "caller": true,
		"callerGuards": false, "nonFloat": false,
	} {
		if got := sums[name].CanNaN; got != want {
			t.Errorf("CanNaN(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestSummaryNeverTerminates(t *testing.T) {
	sums := summarize(t, `package p
func spin()                { for {} }
func drain(ch chan int)    { for range ch {} }
func block()               { select {} }
func normal(ch chan int)   { ch <- 1 }
`)
	for name, want := range map[string]bool{
		"spin": true, "drain": false, "block": true, "normal": false,
	} {
		if got := sums[name].NeverTerminates; got != want {
			t.Errorf("NeverTerminates(%s) = %v, want %v", name, got, want)
		}
	}
}
