package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFlightSpanHierarchy checks ID assignment, parent links, track
// inheritance, and that annotations made after a defer-captured copy
// still land in the trace record.
func TestFlightSpanHierarchy(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	r.EnableTraceOpts(TraceOptions{})

	ctx := ContextWithTrack(context.Background(), 3)
	ctx, root := r.StartSpanCtx(ctx, "outer")
	_, child := r.StartSpanCtx(ctx, "inner")
	if root.ID() == 0 || child.ID() == 0 {
		t.Fatal("recorded spans must carry IDs")
	}
	if child.ParentID() != root.ID() {
		t.Errorf("child parent = %d, want %d", child.ParentID(), root.ID())
	}
	if child.Track() != 3 || root.Track() != 3 {
		t.Errorf("tracks = %d/%d, want 3", root.Track(), child.Track())
	}

	func() {
		defer child.End() // End sees annotations made after this defer
		clk.Advance(time.Microsecond)
		child.Annotate("regime", "direct")
	}()
	root.End()

	events, _ := r.traceSnapshot()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	inner := events[0]
	if inner.Name != "inner" || inner.Parent != root.ID() || inner.Track != 3 {
		t.Errorf("inner record = %+v", inner)
	}
	if len(inner.Attrs) != 1 || inner.Attrs[0] != (Attr{Key: "regime", Value: "direct"}) {
		t.Errorf("inner attrs = %v, want the post-defer annotation", inner.Attrs)
	}
}

// TestEventCtxFlightLinks checks EventCtx records parent/track/attrs
// when a trace is recorded.
func TestEventCtxFlightLinks(t *testing.T) {
	r := New(&ManualClock{})
	r.EnableTraceOpts(TraceOptions{})
	ctx := ContextWithTrack(context.Background(), 2)
	ctx, sp := r.StartSpanCtx(ctx, "outer")
	r.EventCtx(ctx, "cache.hit", 1.25, Attr{Key: "gen", Value: "7"})
	sp.End()

	events, _ := r.traceSnapshot()
	ev := events[0]
	if ev.Parent != sp.ID() || ev.Track != 2 {
		t.Errorf("event links = parent %d track %d, want %d/2", ev.Parent, ev.Track, sp.ID())
	}
	if len(ev.Attrs) != 1 || ev.Attrs[0].Key != "gen" {
		t.Errorf("event attrs = %v", ev.Attrs)
	}
}

// TestTraceDropCounterAndWarning checks satellite 1: overflow shows up
// as the trace.dropped counter in snapshots and logs exactly one
// warning through the installed slog handler.
func TestTraceDropCounterAndWarning(t *testing.T) {
	r := New(&ManualClock{})
	r.EnableTraceOpts(TraceOptions{Capacity: 1})

	var logBuf bytes.Buffer
	prev := SetLogger(slog.New(NewLogHandler(&logBuf, "json", "warn")))
	defer SetLogger(prev)

	for i := 0; i < 4; i++ {
		r.EventCtx(context.Background(), "e", float64(i))
	}
	snap := r.Snapshot()
	if snap.Counters["trace.dropped"] != 3 {
		t.Errorf("trace.dropped counter = %d, want 3", snap.Counters["trace.dropped"])
	}
	warnings := strings.Count(logBuf.String(), "trace buffer full")
	if warnings != 1 {
		t.Errorf("drop warnings = %d, want exactly 1:\n%s", warnings, logBuf.String())
	}
}

// TestSpanEndAllocFree verifies that with no trace recorded (registry
// installed, no trace buffer) a StartSpanCtx/End pair and an EventCtx
// perform zero allocations — the histogram handle is interned, not
// rebuilt per End, and the context is returned as is.
func TestSpanEndAllocFree(t *testing.T) {
	r := New(&ManualClock{})
	ctx := context.Background()
	_, sp := r.StartSpanCtx(ctx, "hot.solve") // intern the handle outside the measurement
	sp.End()
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := r.StartSpanCtx(ctx, "hot.solve")
		sp.End()
		r.EventCtx(ctx, "hot.probe", 1)
	})
	if allocs != 0 { // teclint:ignore floateq AllocsPerRun counts are exact integers
		t.Errorf("StartSpanCtx+End+EventCtx allocs = %g, want 0", allocs)
	}
}

// TestPerfettoExport checks the Chrome trace-event document: valid
// JSON, named thread rows per track, X/i phases, exact µs timestamps,
// and id/parent/attr args.
func TestPerfettoExport(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	r.EnableTraceOpts(TraceOptions{})

	wctx := ContextWithTrack(context.Background(), 1)
	wctx, sp := r.StartSpanCtx(wctx, "task")
	sp.Annotate("regime", "smw")
	clk.Advance(1500 * time.Nanosecond)
	r.EventCtx(wctx, "probe", 2.5, Attr{Key: "pd", Value: "true"})
	sp.End()

	var buf bytes.Buffer
	if err := r.WriteTracePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int64          `json:"tid"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	threads := map[int64]string{}
	var sawSpan, sawEvent bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			threads[ev.TID], _ = ev.Args["name"].(string)
		case ev.Phase == "X":
			sawSpan = true
			if ev.Name != "task" || ev.TID != 1 || ev.Dur != 1.5 { // teclint:ignore floateq exporter emits exact-decimal timestamps; 1.5µs must round-trip bit-exactly
				t.Errorf("X event = %+v, want task on tid 1 dur 1.5µs", ev)
			}
			if ev.Args["regime"] != "smw" || ev.Args["id"] != float64(1) {
				t.Errorf("X args = %v", ev.Args)
			}
		case ev.Phase == "i":
			sawEvent = true
			if ev.Args["value"] != 2.5 || ev.Args["parent"] != float64(1) {
				t.Errorf("i args = %v", ev.Args)
			}
		}
	}
	if !sawSpan || !sawEvent {
		t.Errorf("missing phases: span=%v event=%v", sawSpan, sawEvent)
	}
	if threads[0] != "main" || threads[1] != "worker 01" {
		t.Errorf("thread names = %v", threads)
	}
}

// TestLogHandlerSpanStamping checks the shared handler attaches
// span_id/parent_id from the context span.
func TestLogHandlerSpanStamping(t *testing.T) {
	r := New(&ManualClock{})
	r.EnableTraceOpts(TraceOptions{})
	var buf bytes.Buffer
	lg := slog.New(NewLogHandler(&buf, "json", "info"))

	ctx, sp := r.StartSpanCtx(context.Background(), "outer")
	lg.InfoContext(ctx, "inside span", "k", "v")
	sp.End()
	lg.Info("outside span")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["span_id"] != float64(sp.ID()) {
		t.Errorf("span_id = %v, want %d", rec["span_id"], sp.ID())
	}
	if strings.Contains(lines[1], "span_id") {
		t.Errorf("no-span line carries span_id: %s", lines[1])
	}
}

// TestLogFlagsInstall checks the uniform -log flag pair: off installs
// nothing, text installs a logger and restore uninstalls it.
func TestLogFlagsInstall(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := BindLogFlags(fs)
	if err := fs.Parse([]string{"-log", "text", "-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	restore := f.Install(&buf)
	if Logger() == nil {
		t.Fatal("logger not installed")
	}
	Logger().Debug("hello")
	restore()
	if Logger() != nil {
		t.Error("restore did not uninstall the logger")
	}
	if !strings.Contains(buf.String(), "hello") {
		t.Errorf("log output missing: %q", buf.String())
	}

	off := &LogFlags{Format: "off"}
	off.Install(&buf)()
	if Logger() != nil {
		t.Error("off format installed a logger")
	}
}

// TestHandlerMethodAndSniffGuards checks satellite 3: /metrics rejects
// non-GET/HEAD with 405 + Allow and sets nosniff on every response.
func TestHandlerMethodAndSniffGuards(t *testing.T) {
	r := New(&ManualClock{})
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q", allow)
	}

	resp2, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("GET status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Content-Type-Options"); got != "nosniff" {
		t.Errorf("X-Content-Type-Options = %q, want nosniff", got)
	}
}

// TestFlagsTraceFormatValidation checks that flag parsing accepts
// exactly jsonl (the default) and perfetto for -trace-format, rejects
// anything else (the retired "flight" included) along with bad -log
// and -log-level values, and that every accepted format records a
// trace.
func TestFlagsTraceFormatValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-format", "flight"},
		{"-trace-format", "protobuf"},
		{"-trace-format", "JSONL"},
		{"-log", "yaml"},
		{"-log-level", "loud"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		BindFlags(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	for _, format := range []string{"", "jsonl", "perfetto"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		f := BindFlags(fs)
		args := []string{"-trace", t.TempDir() + "/trace"}
		if format != "" {
			args = append(args, "-trace-format", format)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		s, err := f.Start()
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		if !s.Reg.Tracing() {
			t.Errorf("format %q: no trace recorded", format)
		}
		if err := s.Close(); err != nil {
			t.Errorf("close %q: %v", format, err)
		}
	}
}
