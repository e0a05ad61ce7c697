package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// fixturePatterns are the analyzer fixture packages, expressed relative
// to the module root. They deliberately seed violations, so linting them
// exercises every rule and the output formatting at once.
var fixturePatterns = []string{
	"internal/lint/testdata/badignore",
	"internal/lint/testdata/ctxflow",
	"internal/lint/testdata/dimflow",
	"internal/lint/testdata/droppederr",
	"internal/lint/testdata/errpath",
	"internal/lint/testdata/floateq",
	"internal/lint/testdata/maporder",
	"internal/lint/testdata/nanflow",
	"internal/lint/testdata/obsclock",
	"internal/lint/testdata/testhelper",
	"internal/lint/testdata/typederr",
	"internal/lint/testdata/unitsanity",
	"internal/lint/testdata/validatefirst",
}

// runAtRoot invokes the teclint driver from the module root and returns
// (exit code, stdout, stderr).
func runAtRoot(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	chdir(t, moduleRoot(t))
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// chdir changes the working directory for the duration of the test.
// (The tests here never call t.Parallel, so this is safe.)
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatalf("restoring working directory: %v", err)
		}
	})
}

// moduleRoot asks the go command for the directory of the enclosing
// module's go.mod, from wherever the test stands.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestGoldenOutput pins the exact diagnostic stream produced for the
// seeded fixture packages: the `file:line: [rule] message` format, the
// sort order (file, then line), and the trailing finding count. Run
// with -update to regenerate testdata/golden.txt after intentional
// analyzer changes.
func TestGoldenOutput(t *testing.T) {
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runAtRoot(t, fixturePatterns)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixtures seed violations); stderr:\n%s", code, stderr)
	}
	if want := "finding(s)"; !strings.Contains(stderr, want) {
		t.Errorf("stderr %q does not report the finding count", stderr)
	}

	if *update {
		if err := os.WriteFile(goldenPath, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run `go test ./cmd/teclint -run TestGoldenOutput -update` to create): %v", err)
	}
	if stdout != string(golden) {
		t.Errorf("output differs from golden file\n--- got ---\n%s--- want ---\n%s", stdout, golden)
	}
}

// TestOutputDeterministic runs the driver twice over the same inputs and
// demands byte-identical output: map iteration order must never leak
// into the diagnostic stream.
func TestOutputDeterministic(t *testing.T) {
	_, first, _ := runAtRoot(t, fixturePatterns)
	_, second, _ := runAtRoot(t, fixturePatterns)
	if first != second {
		t.Errorf("two runs differ\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestOutputSorted verifies the documented ordering contract directly:
// findings are grouped by file and nondecreasing by line within a file.
func TestOutputSorted(t *testing.T) {
	_, stdout, _ := runAtRoot(t, fixturePatterns)
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected multiple findings, got %d line(s)", len(lines))
	}
	type pos struct {
		file string
		line string
	}
	var prev pos
	for i, ln := range lines {
		parts := strings.SplitN(ln, ":", 3)
		if len(parts) != 3 || !strings.Contains(parts[2], "[") {
			t.Fatalf("line %d not in file:line: [rule] message form: %q", i+1, ln)
		}
		cur := pos{parts[0], parts[1]}
		if i > 0 && cur.file == prev.file && len(cur.line) == len(prev.line) && cur.line < prev.line {
			t.Errorf("line %d out of order: %q after %q", i+1, ln, lines[i-1])
		}
		prev = cur
	}
}

// TestRepoLintsClean is the self-hosting gate: the production tree must
// produce zero diagnostics under its own analyzers.
func TestRepoLintsClean(t *testing.T) {
	code, stdout, stderr := runAtRoot(t, []string{"./..."})
	if code != 0 || stdout != "" {
		t.Fatalf("repository is not lint-clean (exit %d):\n%s%s", code, stdout, stderr)
	}
}

// lintWallBudget caps the whole-module serial sweep at twice the
// 16-analyzer snapshot recorded in EXPERIMENTS.md (8.39 s on the
// single-CPU reference container). A regression here means an
// analyzer went super-linear, not that the machine is slow — the
// budget already assumes the slowest container measured.
const lintWallBudget = 2 * 8390 * time.Millisecond // 2 x 8.39 s

// TestLintWallTimeBudget times the full-repo serial sweep and fails if
// it blows the 2x budget over the 16-analyzer snapshot.
func TestLintWallTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	start := time.Now()
	code, stdout, stderr := runAtRoot(t, []string{"./..."})
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("repo sweep failed (exit %d):\n%s%s", code, stdout, stderr)
	}
	if elapsed > lintWallBudget {
		t.Errorf("serial whole-module lint took %v, budget %v (2x the 16-analyzer snapshot)", elapsed.Round(time.Millisecond), lintWallBudget)
	}
	t.Logf("serial whole-module lint: %v (budget %v)", elapsed.Round(time.Millisecond), lintWallBudget)
}

// TestExitCodeContract pins the three-way exit contract: clean tree 0,
// findings 1, load/type-check failure 2 (tecerr.CodeInvalidInput).
func TestExitCodeContract(t *testing.T) {
	if code, _, stderr := runAtRoot(t, []string{"internal/tecerr"}); code != 0 {
		t.Errorf("clean package: exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if code, _, _ := runAtRoot(t, fixturePatterns[:1]); code != 1 {
		t.Errorf("fixture package: exit code != 1")
	}
	code, stdout, stderr := runAtRoot(t, []string{"cmd/teclint/testdata/broken"})
	if code != 2 {
		t.Errorf("broken package: exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("broken package wrote findings:\n%s", stdout)
	}
	if !strings.Contains(stderr, "broken") {
		t.Errorf("stderr does not mention the failing package:\n%s", stderr)
	}
}

// TestRulesFlag checks the -rules listing names exactly the registered
// analyzers, one per line.
func TestRulesFlag(t *testing.T) {
	code, stdout, _ := runAtRoot(t, []string{"-rules"})
	if code != 0 {
		t.Fatalf("-rules exit code = %d", code)
	}
	var listed []string
	for _, ln := range strings.Split(strings.TrimRight(stdout, "\n"), "\n") {
		listed = append(listed, strings.Fields(ln)[0])
	}
	want := "ctxflow,dimflow,droppederr,errpath,floateq,maporder,nanflow,obsclock,testhelper,typederr,unitsanity,validatefirst"
	if got := strings.Join(listed, ","); got != want {
		t.Errorf("-rules lists %s, want %s", got, want)
	}
}
