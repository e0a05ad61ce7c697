package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"tecopt/internal/tecerr"
)

// Flags is the uniform observability flag bundle shared by the solver
// commands (tecopt, thermalsim, benchtable, runaway, report,
// conjecture, dtmsim, tecserve), each of which runs through Run:
//
//	-metrics            print a text metric snapshot to stderr on exit
//	-metrics-out FILE   write the JSON snapshot (the machine-readable
//	                    run report) to FILE on exit
//	-trace FILE         record the trace (spans with IDs, parents,
//	                    tracks and attributes, plus events) and write
//	                    it to FILE on exit
//	-trace-format FMT   trace exporter: "jsonl" (one JSON record per
//	                    line, the default) or "perfetto" (Chrome
//	                    trace-event JSON for ui.perfetto.dev); cmd/tectrace
//	                    reads both
//	-log FMT            structured logging to stderr: off, text or json
//	-log-level LVL      minimum log level: debug, info, warn or error
//	-pprof ADDR         serve /metrics and /debug/pprof on ADDR while
//	                    the tool runs
//	-timeout DUR        cancel the run after DUR (e.g. 30s, 2m); the
//	                    tool flushes whatever partial results it has and
//	                    exits with the cancelled status code
//
// With none of the flags set, Run installs nothing and the process
// runs the pre-obs disabled path (stdout byte-identical to a build
// without observability). A -trace-format, -log or -log-level value
// outside its set fails flag parsing, like an unknown flag.
type Flags struct {
	Metrics     bool
	MetricsOut  string
	Trace       string
	TraceFormat string
	Log         LogFlags
	Pprof       string
	Timeout     time.Duration
}

// BindFlags registers the bundle on fs (use flag.CommandLine in main).
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metric snapshot to stderr when the run completes")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the JSON metric snapshot (run report) to this file")
	fs.StringVar(&f.Trace, "trace", "", "record trace spans and write them to this file")
	oneOf(fs, &f.TraceFormat, "trace-format", "trace exporter: jsonl (JSON lines) or perfetto (Chrome trace-event JSON)", "jsonl", "perfetto")
	f.Log.bind(fs)
	fs.StringVar(&f.Pprof, "pprof", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "cancel the run after this duration (0 = no limit), flushing partial results")
	return f
}

// enabled reports whether any observability flag was set.
func (f *Flags) enabled() bool {
	return f.Metrics || f.MetricsOut != "" || f.Trace != "" || f.Pprof != "" || f.Log.enabled()
}

// Run is the one way a command that binds the bundle runs and ends.
// It starts the session the flags ask for, runs body under a context
// that carries the -timeout deadline, and returns the process exit
// status:
//
//	os.Exit(obsFlags.Run("tool", func(ctx context.Context) error { ... }))
//
// A failure of body is reported once: an ERROR record carrying the
// error's tecerr code and op while -log is on, then one "tool: err"
// line on stderr. The status is tecerr.ExitCode of the error (0 on
// success). -metrics, -metrics-out and -trace are written on every
// path; a failure to write them is reported on stderr but leaves the
// status alone. A body that has partial results prints them before it
// returns its error.
func (f *Flags) Run(tool string, body func(ctx context.Context) error) int {
	return f.run(os.Stderr, tool, body)
}

// run is Run writing to stderr.
func (f *Flags) run(stderr io.Writer, tool string, body func(ctx context.Context) error) int {
	s, err := f.start(stderr)
	if err != nil {
		// start installed nothing; the failure is still logged.
		defer f.Log.Install(stderr)()
		return fail(stderr, tool, err)
	}
	// Deferred, so the outputs are also written when body panics; it
	// runs after fail has logged through the installed logger.
	defer func() {
		if err := s.Close(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		}
	}()
	ctx := context.Background()
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		defer cancel()
	}
	if err := body(ctx); err != nil {
		return fail(stderr, tool, err)
	}
	return 0
}

// fail reports a command's failure — the structured ERROR record while
// a logger is installed, then the "tool: err" line — and returns the
// error's exit status.
func fail(stderr io.Writer, tool string, err error) int {
	if l := Logger(); l != nil {
		l.Error(tool+" failed", tecerr.LogAttrs(err)...)
	}
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return tecerr.ExitCode(err)
}

// Session is one activated observability run: the installed registry
// plus the outputs owed at Close. A nil *Session (from Start with no
// flags set) is valid and Close is a no-op on it.
type Session struct {
	Reg        *Registry
	flags      Flags
	server     *http.Server
	errs       chan error // server outcome, buffered
	stderr     io.Writer
	restoreLog func() // uninstalls the slog logger
}

// Start activates the requested observability: it starts the debug
// server if -pprof was given, records a trace if -trace was given,
// installs the structured logger if -log was given, and installs a
// global registry on the wall clock. It returns nil (fully disabled,
// zero overhead) when no flag was set, and installs nothing when it
// fails. Commands run through Run instead; tests that record a run
// without a command body call Start and Close directly.
func (f *Flags) Start() (*Session, error) {
	return f.start(os.Stderr)
}

// start is Start writing to stderr.
func (f *Flags) start(stderr io.Writer) (*Session, error) {
	if !f.enabled() {
		return nil, nil
	}
	s := &Session{Reg: New(nil), flags: *f, stderr: stderr}
	if f.Pprof != "" {
		ln, err := net.Listen("tcp", f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("obs: -pprof listen on %s: %w", f.Pprof, err)
		}
		s.server = &http.Server{Handler: DebugMux(s.Reg)}
		s.errs = make(chan error, 1)
		go func() { s.errs <- s.server.Serve(ln) }()
		fmt.Fprintf(stderr, "obs: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
	}
	if f.Trace != "" {
		s.Reg.EnableTraceOpts(TraceOptions{})
	}
	s.restoreLog = f.Log.Install(stderr)
	SetGlobal(s.Reg)
	return s, nil
}

// Close uninstalls the registry and the logger and writes everything
// the flags asked for: the stderr text snapshot (-metrics), the JSON
// run report (-metrics-out), the trace file (-trace), and a graceful
// shutdown of the debug server. Safe on a nil Session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	SetGlobal(nil)
	s.restoreLog()
	var errs []error
	snap := s.Reg.Snapshot()
	if s.flags.Metrics {
		if _, err := io.WriteString(s.stderr, snap.Text()); err != nil {
			errs = append(errs, err)
		}
	}
	if s.flags.MetricsOut != "" {
		b, err := snap.JSON()
		if err == nil {
			err = os.WriteFile(s.flags.MetricsOut, b, 0o644)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("obs: writing -metrics-out: %w", err))
		}
	}
	if s.flags.Trace != "" {
		if err := s.writeTraceFile(); err != nil {
			errs = append(errs, fmt.Errorf("obs: writing -trace: %w", err))
		}
	}
	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := s.server.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-s.errs; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// writeTraceFile writes the trace in the -trace-format exporter:
// Chrome trace-event JSON for perfetto, JSON lines otherwise.
func (s *Session) writeTraceFile() error {
	out, err := os.Create(s.flags.Trace)
	if err != nil {
		return err
	}
	write := s.Reg.WriteTrace
	if s.flags.TraceFormat == "perfetto" {
		write = s.Reg.WriteTracePerfetto
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// oneOf registers a string flag that accepts only the given values;
// the first is the default. Any other value fails fs.Parse, which exits
// 2 under flag.ExitOnError, as an unknown flag does.
func oneOf(fs *flag.FlagSet, p *string, name, usage string, values ...string) {
	*p = values[0]
	fs.Func(name, fmt.Sprintf("%s (default %q)", usage, values[0]), func(v string) error {
		if !slices.Contains(values, v) {
			return tecerr.Newf(tecerr.CodeInvalidInput, "obs.flags", "want one of %s", strings.Join(values, ", "))
		}
		*p = v
		return nil
	})
}
