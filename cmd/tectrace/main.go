// Command tectrace summarizes a solve-path trace recorded by the -trace
// flag of the solver CLIs: per-regime solve counts (smw / direct /
// fallback / beyond-limit), the top spans by cumulative and self time,
// the critical path to the slowest solve, and every degradation (SMW
// guard trips, trace truncation).
//
// Usage:
//
//	tectrace [-top 10] trace-file
//
// Both exporters' files are accepted and auto-detected: JSON lines
// (-trace-format=jsonl, the default) and Chrome trace-event JSON
// (-trace-format=perfetto).
//
// Exit status follows the tecerr taxonomy (0 ok, 2 invalid input).
package main

import (
	"flag"
	"io"
	"os"

	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

func main() {
	top := flag.Int("top", 10, "number of spans in the top-by-time tables")
	logFlags := obs.BindLogFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(logFlags.Run("tectrace", func() error {
		if flag.NArg() != 1 {
			return tecerr.New(tecerr.CodeInvalidInput, "tectrace", "usage: tectrace [-top N] trace-file")
		}
		return run(flag.Arg(0), *top, os.Stdout)
	}))
}

func run(path string, top int, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return tecerr.Wrap(tecerr.CodeInvalidInput, "tectrace", "reading trace", err)
	}
	events, err := parseTrace(data)
	if err != nil {
		return err
	}
	rep := analyze(events, top)
	_, err = io.WriteString(out, rep.format())
	return err
}
