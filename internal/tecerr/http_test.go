package tecerr

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// TestCodeMappingsExhaustive iterates every Code the enum declares
// (0..numCodes-1, so a newly added code is covered without touching
// this test) and requires a stable name, an exit status, and an HTTP
// status for each. Adding a Code without extending String, exitStatus,
// or httpStatus fails here — the compilation-adjacent completeness
// check for the three switches.
func TestCodeMappingsExhaustive(t *testing.T) {
	seenExit := map[int]Code{}
	for c := Code(0); c < numCodes; c++ {
		name := c.String()
		if strings.HasPrefix(name, "Code(") {
			t.Errorf("Code %d has no String() name", int(c))
		}
		exit, ok := c.exitStatus()
		if !ok {
			t.Errorf("Code %s (%d) has no exit-status mapping", name, int(c))
		}
		if exit == 0 {
			t.Errorf("Code %s maps to exit 0, which means success", name)
		}
		if prev, dup := seenExit[exit]; dup {
			t.Errorf("Codes %s and %s share exit status %d", prev, name, exit)
		}
		seenExit[exit] = c
		status, ok := c.httpStatus()
		if !ok {
			t.Errorf("Code %s (%d) has no HTTP-status mapping", name, int(c))
		}
		if status < 400 || status > 599 {
			t.Errorf("Code %s maps to HTTP %d, want an error status", name, status)
		}
	}

	// The guard itself must work: a code past the enum is unmapped.
	if _, ok := numCodes.exitStatus(); ok {
		t.Errorf("exitStatus claims to map the out-of-range code %d", int(numCodes))
	}
	if _, ok := numCodes.httpStatus(); ok {
		t.Errorf("httpStatus claims to map the out-of-range code %d", int(numCodes))
	}
}

// TestHTTPStatus pins the externally observable contract of the
// serving layer: status per failure class, through wrapping.
func TestHTTPStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{errors.New("untyped"), http.StatusInternalServerError},
		{New(CodeInvalidInput, "t", "bad"), http.StatusBadRequest},
		{New(CodeNotPD, "t", "beyond lambda_m"), http.StatusUnprocessableEntity},
		{New(CodeDiverged, "t", "cg"), http.StatusInternalServerError},
		{Cancelled("t", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{FromPanic("t", "boom", nil), http.StatusInternalServerError},
		{New(CodeOverload, "t", "queue full"), http.StatusTooManyRequests},
		{New(CodeUnavailable, "t", "draining"), http.StatusServiceUnavailable},
		// Wrapping must not change the class.
		{Wrap(CodeInternal, "outer", "ctx", New(CodeOverload, "t", "queue full")), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	// The outermost code wins for wrapped errors (same rule as CodeOf).
	inner := New(CodeNotPD, "in", "np")
	if got := HTTPStatus(Wrap(CodeOverload, "out", "shed", inner)); got != http.StatusTooManyRequests {
		t.Errorf("wrapped HTTPStatus = %d, want 429 from the outermost code", got)
	}
}

// TestNewCodeSentinels checks the service-layer sentinels match by
// code like the older ones.
func TestNewCodeSentinels(t *testing.T) {
	if !errors.Is(New(CodeOverload, "t", "x"), ErrOverload) {
		t.Error("CodeOverload error does not match ErrOverload")
	}
	if !errors.Is(New(CodeUnavailable, "t", "x"), ErrUnavailable) {
		t.Error("CodeUnavailable error does not match ErrUnavailable")
	}
	if errors.Is(New(CodeOverload, "t", "x"), ErrUnavailable) {
		t.Error("CodeOverload error must not match ErrUnavailable")
	}
	if ExitCode(New(CodeOverload, "t", "x")) != 8 || ExitCode(New(CodeUnavailable, "t", "x")) != 9 {
		t.Error("new codes lost their exit statuses")
	}
}
