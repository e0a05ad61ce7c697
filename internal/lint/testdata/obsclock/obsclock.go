// Package obsclocktest seeds violations and clean code for the
// obsclock analyzer fixture tests. The package imports
// tecopt/internal/obs, so it counts as instrumented and every direct
// wall-clock read is a violation; lines carrying one end with a
// want-rule marker.
package obsclocktest

import (
	"context"
	"time"

	"tecopt/internal/obs"
)

// registryClock times work the approved way: on the injected
// monotonic clock of the installed registry.
func registryClock() int64 {
	r := obs.Enabled()
	if r == nil {
		return 0
	}
	start := r.Now()
	r.ObserveSince("fixture.work_ns", start)
	return r.Now() - start
}

// spanClock is also clean: spans read the registry clock internally.
func spanClock() {
	r := obs.Enabled()
	_, sp := r.StartSpanCtx(context.Background(), "fixture.op")
	defer sp.End()
}

func wallClockLeak() time.Time {
	return time.Now() // want obsclock
}

func wallDurationLeak() time.Duration {
	start := time.Now()      // want obsclock
	return time.Since(start) // want obsclock
}

// timeValuesAreFine shows that only the clock reads are flagged: other
// uses of the time package (durations, formatting constants) are
// legitimate in instrumented code.
func timeValuesAreFine() time.Duration {
	return 5 * time.Millisecond
}

// structuredLogIsFine: logging through the installed slog handler is
// clean under obsclock. slog stamps each record with a wall-clock
// timestamp internally, but that read happens inside log/slog, not in
// the instrumented package — the rule governs durations *measured* by
// instrumented code (which must come from the registry clock), not
// log-record metadata. The span handler's span_id/parent_id stamping
// reads no clock at all.
func structuredLogIsFine(ctx context.Context) {
	if l := obs.Logger(); l != nil {
		l.InfoContext(ctx, "fixture event", "detail", 42)
	}
}
