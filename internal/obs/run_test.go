package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tecopt/internal/tecerr"
)

// TestFlagsRunStatus checks the one ending: the status is the error's
// tecerr exit code, and a failure with -log off writes exactly one
// "tool: err" line on stderr.
func TestFlagsRunStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		status int
	}{
		{"ok", nil, 0},
		{"untyped", errors.New("plain failure"), 1},
		{"invalid", tecerr.New(tecerr.CodeInvalidInput, "chipload", "chipload: bad chip"), 2},
		{"notpd", tecerr.New(tecerr.CodeNotPD, "core.solve", "core: not PD"), 3},
		{"cancelled", tecerr.Cancelled("bench.figure6", context.DeadlineExceeded), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			got := (&Flags{}).run(&stderr, "tool", func(context.Context) error { return tc.err })
			if got != tc.status {
				t.Errorf("status = %d, want %d", got, tc.status)
			}
			if tc.err == nil {
				if stderr.Len() != 0 {
					t.Errorf("success wrote to stderr: %q", stderr.String())
				}
				return
			}
			if want := "tool: " + tc.err.Error() + "\n"; stderr.String() != want {
				t.Errorf("stderr = %q, want the one line %q", stderr.String(), want)
			}
		})
	}
}

// TestFlagsRunLogRecord checks that with -log json a failure writes one
// ERROR record carrying the tecerr code and op, before the "tool: err"
// line, and that the logger is uninstalled afterwards.
func TestFlagsRunLogRecord(t *testing.T) {
	var stderr bytes.Buffer
	f := &Flags{Log: LogFlags{Format: "json", Level: "info"}}
	status := f.run(&stderr, "tool", func(context.Context) error {
		return tecerr.New(tecerr.CodeInvalidInput, "chipload", "chipload: bad chip")
	})
	if status != 2 {
		t.Errorf("status = %d, want 2", status)
	}
	if Logger() != nil {
		t.Error("run left the logger installed")
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 2 || lines[1] != "tool: chipload: bad chip" {
		t.Fatalf("stderr lines = %q, want one record and one error line", lines)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record %q: %v", lines[0], err)
	}
	for k, want := range map[string]string{
		"level": "ERROR", "msg": "tool failed", "code": "invalid_input", "op": "chipload", "err": "chipload: bad chip",
	} {
		if rec[k] != want {
			t.Errorf("record %s = %v, want %q", k, rec[k], want)
		}
	}
}

// TestFlagsRunStartFailure checks that a session that cannot start
// (an unusable -pprof address) is reported like a body failure, record
// included, and leaves no logger or registry installed.
func TestFlagsRunStartFailure(t *testing.T) {
	var stderr bytes.Buffer
	ran := false
	f := &Flags{Pprof: "bad::addr", Log: LogFlags{Format: "json", Level: "info"}}
	status := f.run(&stderr, "tool", func(context.Context) error { ran = true; return nil })
	if status != 1 || ran {
		t.Errorf("status = %d, body ran = %v; want 1 and no run", status, ran)
	}
	if Logger() != nil || Enabled() != nil {
		t.Error("a failed start left the logger or the registry installed")
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"msg":"tool failed"`) || !strings.HasPrefix(lines[1], "tool: obs: -pprof listen") {
		t.Errorf("stderr lines = %q, want one record and one error line", lines)
	}
}

// TestFlagsRunFlushesOnFailure checks that -metrics-out is written on
// the failure path, with what the body recorded before it failed.
func TestFlagsRunFlushesOnFailure(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	var stderr bytes.Buffer
	status := (&Flags{MetricsOut: out}).run(&stderr, "tool", func(context.Context) error {
		Enabled().Counter("partial.work").Add(3)
		return tecerr.Cancelled("tool", context.DeadlineExceeded)
	})
	if status != 5 {
		t.Errorf("status = %d, want 5", status)
	}
	if Enabled() != nil {
		t.Error("run left the global registry installed")
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("-metrics-out not written on the failure path: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["partial.work"] != 3 {
		t.Errorf("metrics-out counters = %v", snap.Counters)
	}
}

// TestFlagsRunTimeout checks that the body's context carries the
// -timeout deadline, and no deadline without it.
func TestFlagsRunTimeout(t *testing.T) {
	before := time.Now()
	(&Flags{Timeout: time.Hour}).run(&bytes.Buffer{}, "tool", func(ctx context.Context) error {
		dl, ok := ctx.Deadline()
		if !ok || dl.Before(before.Add(time.Hour)) || dl.After(time.Now().Add(time.Hour)) {
			t.Errorf("deadline = %v, %v; want one hour after the start", dl, ok)
		}
		return nil
	})
	(&Flags{}).run(&bytes.Buffer{}, "tool", func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			t.Error("deadline without -timeout")
		}
		return nil
	})
}

// TestLogFlagsRun checks the logging-only ending: the status, the one
// error line, and with -log json the ERROR record with code and op.
func TestLogFlagsRun(t *testing.T) {
	var stderr bytes.Buffer
	if got := (&LogFlags{Format: "off"}).run(&stderr, "tool", func() error { return errors.New("plain") }); got != 1 {
		t.Errorf("untyped status = %d, want 1", got)
	}
	if stderr.String() != "tool: plain\n" {
		t.Errorf("stderr = %q, want the one error line", stderr.String())
	}
	stderr.Reset()
	if got := (&LogFlags{Format: "off"}).run(&stderr, "tool", func() error { return nil }); got != 0 || stderr.Len() != 0 {
		t.Errorf("success: status %d, stderr %q", got, stderr.String())
	}

	stderr.Reset()
	status := (&LogFlags{Format: "json", Level: "info"}).run(&stderr, "tool", func() error {
		return tecerr.Wrap(tecerr.CodeInvalidInput, "tectrace", "reading trace", os.ErrNotExist)
	})
	if status != 2 {
		t.Errorf("typed status = %d, want 2", status)
	}
	if Logger() != nil {
		t.Error("run left the logger installed")
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "tool: reading trace") {
		t.Fatalf("stderr lines = %q, want one record and one error line", lines)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record %q: %v", lines[0], err)
	}
	if rec["msg"] != "tool failed" || rec["code"] != "invalid_input" || rec["op"] != "tectrace" {
		t.Errorf("record = %v", rec)
	}
}
