// Command teclint runs the repository's static-analysis suite
// (internal/lint) over package directories and reports findings as
//
//	file:line: [rule] message
//
// sorted by file and line. It is the lint gate invoked by `make lint`
// and CI:
//
//	go run ./cmd/teclint ./...
//
// Arguments are package directories, listed with `go list`: "./..."
// names every package of the current module (testdata and nested
// modules left out), a plain directory path just that package. With no
// arguments, "./..." is assumed. The go command must be on PATH.
//
// Flags:
//
//	-rules         list the analyzers and exit
//	-log FMT       structured logging to stderr (off, text or json), the
//	               uniform obs flag pair; -log-level sets the threshold.
//
// Exit codes follow the tecerr contract: 0 clean, 1 when findings
// remain, 2 (tecerr.CodeInvalidInput) when packages fail to load or
// type-check, or on flag misuse.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tecopt/internal/lint"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadFailure wraps a loader error so the process exit code
// (via tecerr.ExitCode) distinguishes "could not analyze" from "found
// problems".
func loadFailure(op string, err error) error {
	return &tecerr.Error{Code: tecerr.CodeInvalidInput, Op: op, Msg: "teclint: " + op, Err: err}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("teclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listRules := fs.Bool("rules", false, "list the analyzers and exit")
	logFlags := obs.BindLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defer logFlags.Install(stderr)()
	analyzers := lint.All()
	if *listRules {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return tecerr.ExitCode(loadFailure("getwd", err))
	}
	loader, err := lint.NewLoader(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return tecerr.ExitCode(loadFailure("listing packages", err))
	}
	diags, err := lint.LintPackages(loader, analyzers, cwd)
	if err != nil {
		fmt.Fprintln(stderr, "teclint:", err)
		return tecerr.ExitCode(loadFailure("loading packages", err))
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "teclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
