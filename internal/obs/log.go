package obs

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// logger is the process-wide structured logger installed by SetLogger;
// nil means logging is off. Like the metrics registry, the disabled
// path is one atomic load plus a nil check.
var logger atomic.Pointer[slog.Logger]

// SetLogger installs l as the process-wide structured logger (nil
// disables). The previous logger is returned so tests and Close paths
// can restore it.
func SetLogger(l *slog.Logger) *slog.Logger {
	return logger.Swap(l)
}

// Logger returns the installed structured logger, or nil when logging
// is off. Callers on hot paths should check for nil before building
// attributes.
func Logger() *slog.Logger {
	return logger.Load()
}

// logWarn emits a warning through the installed logger, if any. The
// obs package's own warnings (trace truncation) go through here so
// they obey the user's -log flags.
func logWarn(msg string, args ...any) {
	if l := logger.Load(); l != nil {
		l.Warn(msg, args...)
	}
}

// spanHandler decorates a slog.Handler with the trace identity of the
// context: records carry span_id/parent_id attributes when the context
// holds a recorded span, so log lines correlate with trace spans.
type spanHandler struct {
	slog.Handler
}

// Handle stamps the record with the context span's identity before
// delegating.
func (h spanHandler) Handle(ctx context.Context, rec slog.Record) error {
	if sp := SpanFromContext(ctx); sp.extra != nil {
		rec.AddAttrs(
			slog.Uint64("span_id", sp.extra.id),
			slog.Uint64("parent_id", sp.extra.parent),
		)
	}
	return h.Handler.Handle(ctx, rec)
}

// WithAttrs preserves the span decoration on derived handlers.
func (h spanHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return spanHandler{h.Handler.WithAttrs(attrs)}
}

// WithGroup preserves the span decoration on derived handlers.
func (h spanHandler) WithGroup(name string) slog.Handler {
	return spanHandler{h.Handler.WithGroup(name)}
}

// NewLogHandler builds the shared structured-logging handler used by
// every CLI: format "json" writes JSON records and any other value
// text; level is debug, info, warn (or warning) or error, and any other
// value means info. The -log and -log-level flags accept only those
// values. The handler stamps span_id/parent_id from the context when a
// trace is recorded.
func NewLogHandler(w io.Writer, format, level string) slog.Handler {
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	switch level {
	case "debug":
		opts.Level = slog.LevelDebug
	case "warn", "warning":
		opts.Level = slog.LevelWarn
	case "error":
		opts.Level = slog.LevelError
	}
	if format == "json" {
		return spanHandler{slog.NewJSONHandler(w, opts)}
	}
	return spanHandler{slog.NewTextHandler(w, opts)}
}

// LogFlags is the uniform -log/-log-level flag pair shared by every
// CLI. The zero value ("off") disables structured logging.
type LogFlags struct {
	// Format is "off" (default), "text" or "json".
	Format string
	// Level is "debug", "info" (default), "warn" or "error".
	Level string
}

// BindLogFlags registers the flag pair on fs and returns the bound
// struct. It is split from BindFlags so CLIs that do not want the
// metrics/trace bundle (teclint, mkchip, tectrace, benchjson) still
// take the uniform logging flags.
func BindLogFlags(fs *flag.FlagSet) *LogFlags {
	f := &LogFlags{}
	f.bind(fs)
	return f
}

// bind registers -log/-log-level on fs.
func (f *LogFlags) bind(fs *flag.FlagSet) {
	oneOf(fs, &f.Format, "log", "structured logging to stderr: off, text or json", "off", "text", "json")
	oneOf(fs, &f.Level, "log-level", "minimum log level: debug, info, warn or error", "info", "debug", "warn", "warning", "error")
}

// enabled reports whether the flags ask for logging.
func (f *LogFlags) enabled() bool {
	return f.Format != "" && f.Format != "off"
}

// Install builds the handler described by the flags, installs it as
// the process logger, and returns a restore function (call it at CLI
// exit). With logging off it installs nothing and the restore is a
// no-op.
func (f *LogFlags) Install(w io.Writer) (restore func()) {
	if !f.enabled() {
		return func() {}
	}
	prev := SetLogger(slog.New(NewLogHandler(w, f.Format, f.Level)))
	return func() { SetLogger(prev) }
}

// Run is the one way a command that binds only the logging flags runs
// and ends: it installs the logger, runs body, and returns the process
// exit status, reporting a failure as Flags.Run does (an ERROR record
// with the tecerr code and op while -log is on, then one "tool: err"
// line on stderr, status tecerr.ExitCode).
func (f *LogFlags) Run(tool string, body func() error) int {
	return f.run(os.Stderr, tool, body)
}

// run is Run writing to stderr.
func (f *LogFlags) run(stderr io.Writer, tool string, body func() error) int {
	restore := f.Install(stderr)
	defer restore()
	if err := body(); err != nil {
		return fail(stderr, tool, err)
	}
	return 0
}
