package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureLoader builds a loader rooted at the enclosing module so
// fixtures under testdata/ type-check with the same machinery teclint
// uses.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("creating loader: %v", err)
	}
	return loader
}

// wantedFindings scans fixture sources for "// want <rule>" markers and
// returns the expected "file:line" keys.
func wantedFindings(t *testing.T, dir, rule string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "// want "+rule) {
				want[fmt.Sprintf("%s:%d", path, line)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning fixture: %v", err)
		}
		f.Close()
	}
	return want
}

// runFixture runs one analyzer over its fixture package and checks the
// findings match the // want markers exactly.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	loader := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", a.Name))
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	units, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture package: %v", err)
	}
	if len(units) == 0 {
		t.Fatalf("no packages loaded from %s", dir)
	}
	got := make(map[string]bool)
	for _, unit := range units {
		for _, d := range Run(unit, []*Analyzer{a}) {
			key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
			if got[key] {
				t.Errorf("duplicate finding at %s", key)
			}
			got[key] = true
		}
	}
	want := wantedFindings(t, dir, a.Name)
	if len(want) == 0 {
		t.Fatalf("fixture for %s has no // want markers; it would not prove the rule fires", a.Name)
	}
	for key := range want {
		if !got[key] {
			t.Errorf("%s: expected finding at %s, got none", a.Name, key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("%s: unexpected finding at %s", a.Name, key)
		}
	}
}

func TestFloatEqFixture(t *testing.T)       { runFixture(t, FloatEq) }
func TestDroppedErrFixture(t *testing.T)    { runFixture(t, DroppedErr) }
func TestLockCopyFixture(t *testing.T)      { runFixture(t, LockCopy) }
func TestMapOrderFixture(t *testing.T)      { runFixture(t, MapOrder) }
func TestObsClockFixture(t *testing.T)      { runFixture(t, ObsClock) }
func TestTestHelperFixture(t *testing.T)    { runFixture(t, TestHelper) }
func TestTypedErrFixture(t *testing.T)      { runFixture(t, TypedErr) }
func TestUnitSanityFixture(t *testing.T)    { runFixture(t, UnitSanity) }
func TestCtxFlowFixture(t *testing.T)       { runFixture(t, CtxFlow) }
func TestErrPathFixture(t *testing.T)       { runFixture(t, ErrPath) }
func TestLockBalanceFixture(t *testing.T)   { runFixture(t, LockBalance) }
func TestValidateFirstFixture(t *testing.T) { runFixture(t, ValidateFirst) }
func TestDimFlowFixture(t *testing.T)       { runFixture(t, DimFlow) }
func TestNaNFlowFixture(t *testing.T)       { runFixture(t, NaNFlow) }
func TestGoroLeakFixture(t *testing.T)      { runFixture(t, GoroLeak) }
func TestChanFlowFixture(t *testing.T)      { runFixture(t, ChanFlow) }
func TestWGBalanceFixture(t *testing.T)     { runFixture(t, WGBalance) }
func TestMutexBlockFixture(t *testing.T)    { runFixture(t, MutexBlock) }
func TestOnceMisuseFixture(t *testing.T)    { runFixture(t, OnceMisuse) }
func TestSpawnCtxFixture(t *testing.T)      { runFixture(t, SpawnCtx) }

// TestBadIgnoreFixture exercises the framework-level badignore
// pseudo-rule: reasonless teclint:ignore directives are reported by Run
// itself, with no analyzer registered at all.
func TestBadIgnoreFixture(t *testing.T) {
	loader := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "badignore"))
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	units, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture package: %v", err)
	}
	got := make(map[string]bool)
	for _, unit := range units {
		for _, d := range Run(unit, nil) {
			if d.Rule != BadIgnoreRule {
				t.Errorf("unexpected rule %q at %s:%d", d.Rule, d.Pos.Filename, d.Pos.Line)
				continue
			}
			got[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] = true
		}
	}
	want := wantedFindings(t, dir, BadIgnoreRule)
	if len(want) == 0 {
		t.Fatal("badignore fixture has no // want markers")
	}
	for key := range want {
		if !got[key] {
			t.Errorf("expected badignore finding at %s, got none", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected badignore finding at %s", key)
		}
	}
}

// TestAllAnalyzersRegistered pins the suite composition: adding an
// analyzer without registering it in All() would silently drop it from
// teclint and CI.
func TestAllAnalyzersRegistered(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	sort.Strings(names)
	want := []string{"chanflow", "ctxflow", "dimflow", "droppederr", "errpath", "floateq", "goroleak", "lockbalance", "lockcopy", "maporder", "mutexblock", "nanflow", "obsclock", "oncemisuse", "spawnctx", "testhelper", "typederr", "unitsanity", "validatefirst", "wgbalance"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("registered analyzers = %v, want %v", names, want)
	}
}

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		comment string
		rules   string // comma-joined expected rule list
		reason  string
		ok      bool
	}{
		{"//teclint:ignore floateq bit-exact sentinel", "floateq", "bit-exact sentinel", true},
		{"// teclint:ignore maporder reason", "maporder", "reason", true},
		{"/* teclint:ignore droppederr reason */", "droppederr", "reason", true},
		{"/* teclint:ignore floateq */", "floateq", "", true}, // reasonless: still parses, badignore flags it
		{"//teclint:ignore errpath", "errpath", "", true},
		{"//teclint:ignore dimflow,nanflow both fire on the seeded mismatch", "dimflow,nanflow", "both fire on the seeded mismatch", true},
		{"// teclint:ignore dimflow, nanflow stray space splits the list", "dimflow", "nanflow stray space splits the list", true},
		{"// regular comment", "", "", false},
		{"//teclint:ignore", "", "", true}, // bare directive parses; badignore reports it as unscoped
	}
	for _, c := range cases {
		rules, reason, ok := parseIgnore(c.comment)
		if strings.Join(rules, ",") != c.rules || reason != c.reason || ok != c.ok {
			t.Errorf("parseIgnore(%q) = %q,%q,%v want %q,%q,%v", c.comment, strings.Join(rules, ","), reason, ok, c.rules, c.reason, c.ok)
		}
	}
}

// TestDiagnosticString pins the output format golden-tested end-to-end
// in cmd/teclint.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "floateq", Message: "msg"}
	d.Pos.Filename = "internal/core/greedy.go"
	d.Pos.Line = 42
	if got, want := d.String(), "internal/core/greedy.go:42: [floateq] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
