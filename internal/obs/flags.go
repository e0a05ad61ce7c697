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
)

// Flags is the uniform observability flag bundle shared by every cmd
// tool (benchtable, conjecture, runaway, report, dtmsim, thermalsim):
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
// With none of the flags set, Start installs nothing and the process
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

// Context returns the context governing the run: context.Background()
// without -timeout, or a deadline context honoring it. The returned
// cancel func must be called (defer it) to release the timer.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), f.Timeout)
}

// enabled reports whether any observability flag was set.
func (f *Flags) enabled() bool {
	return f.Metrics || f.MetricsOut != "" || f.Trace != "" || f.Pprof != "" || f.Log.enabled()
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
	restoreLog func() // uninstalls the slog logger; nil when -log is off
}

// Start activates the requested observability: it installs a global
// registry on the wall clock, records a trace if -trace was given,
// installs the structured logger if -log was given, and starts the
// debug server if -pprof was given. It returns nil (fully disabled,
// zero overhead) when no flag was set.
func (f *Flags) Start() (*Session, error) {
	if !f.enabled() {
		return nil, nil
	}
	reg := New(nil)
	if f.Trace != "" {
		reg.EnableTraceOpts(TraceOptions{})
	}
	s := &Session{Reg: reg, flags: *f, stderr: os.Stderr}
	restore, err := f.Log.Install(s.stderr)
	if err != nil {
		return nil, err
	}
	s.restoreLog = restore
	if f.Pprof != "" {
		ln, err := net.Listen("tcp", f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("obs: -pprof listen on %s: %w", f.Pprof, err)
		}
		s.server = &http.Server{Handler: DebugMux(reg)}
		s.errs = make(chan error, 1)
		go func() { s.errs <- s.server.Serve(ln) }()
		fmt.Fprintf(s.stderr, "obs: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
	}
	SetGlobal(reg)
	return s, nil
}

// Close uninstalls the registry and writes everything the flags asked
// for: the stderr text snapshot (-metrics), the JSON run report
// (-metrics-out), the trace file (-trace), and a graceful shutdown of
// the debug server. Safe on a nil Session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	SetGlobal(nil)
	if s.restoreLog != nil {
		s.restoreLog()
	}
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
			return fmt.Errorf("want one of %s", strings.Join(values, ", "))
		}
		*p = v
		return nil
	})
}
