package tecerr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestErrorMessage(t *testing.T) {
	e := Newf(CodeInvalidInput, "sparse.cg", "sparse: CG rhs length %d, want %d", 3, 5)
	if got, want := e.Error(), "sparse: CG rhs length 3, want 5"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	cause := errors.New("inner")
	w := Wrap(CodeDiverged, "op", "outer", cause)
	if got, want := w.Error(), "outer: inner"; got != want {
		t.Fatalf("wrapped Error() = %q, want %q", got, want)
	}
	if !errors.Is(w, cause) {
		t.Fatal("wrapped cause not reachable via errors.Is")
	}
}

func TestCodeSentinelMatching(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{New(CodeInvalidInput, "op", "m"), ErrInvalidInput},
		{New(CodeNotPD, "op", "m"), ErrNotPD},
		{New(CodeDiverged, "op", "m"), ErrDiverged},
		{New(CodeCancelled, "op", "m"), ErrCancelled},
		{New(CodePanic, "op", "m"), ErrPanic},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("errors.Is(%v, %v) = false, want true", c.err, c.sentinel)
		}
	}
	// Cross-code matches must fail.
	if errors.Is(New(CodeNotPD, "op", "m"), ErrDiverged) {
		t.Error("CodeNotPD matched ErrDiverged")
	}
	// Matching survives fmt.Errorf %w wrapping.
	wrapped := fmt.Errorf("outer: %w", New(CodeNotPD, "op", "m"))
	if !errors.Is(wrapped, ErrNotPD) {
		t.Error("code match lost through %w wrapping")
	}
}

func TestDistinctErrorValuesKeepIdentity(t *testing.T) {
	// Two *Error values with the same code are NOT errors.Is-equal:
	// package-level sentinels built as *Error keep exact identity.
	a := New(CodeNotPD, "a", "a failed")
	b := New(CodeNotPD, "b", "b failed")
	if errors.Is(a, b) {
		t.Fatal("two distinct *Error values matched each other")
	}
	if !errors.Is(fmt.Errorf("x: %w", a), a) {
		t.Fatal("identity match lost through wrapping")
	}
}

func TestCodeOf(t *testing.T) {
	if got := CodeOf(New(CodeDiverged, "op", "m")); got != CodeDiverged {
		t.Errorf("CodeOf(*Error) = %v", got)
	}
	if got := CodeOf(fmt.Errorf("x: %w", New(CodeNotPD, "op", "m"))); got != CodeNotPD {
		t.Errorf("CodeOf(wrapped) = %v", got)
	}
	if got := CodeOf(context.Canceled); got != CodeCancelled {
		t.Errorf("CodeOf(context.Canceled) = %v", got)
	}
	if got := CodeOf(context.DeadlineExceeded); got != CodeCancelled {
		t.Errorf("CodeOf(context.DeadlineExceeded) = %v", got)
	}
	if got := CodeOf(errors.New("plain")); got != CodeInternal {
		t.Errorf("CodeOf(plain) = %v", got)
	}
	// The sentinel itself classifies.
	if got := CodeOf(ErrPanic); got != CodePanic {
		t.Errorf("CodeOf(ErrPanic) = %v", got)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("plain"), 1},
		{New(CodeInvalidInput, "op", "m"), 2},
		{New(CodeNotPD, "op", "m"), 3},
		{New(CodeDiverged, "op", "m"), 4},
		{context.DeadlineExceeded, 5},
		{New(CodeCancelled, "op", "m"), 5},
		{New(CodePanic, "op", "m"), 7},
		{New(CodeOverload, "op", "m"), 8},
		{New(CodeUnavailable, "op", "m"), 9},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	// Status 6 belonged to a retired code and stays unused.
	for c := Code(0); c < numCodes; c++ {
		if status, _ := c.exitStatus(); status == 6 {
			t.Errorf("Code %s maps to the retired exit status 6", c)
		}
	}
}

func TestFromPanic(t *testing.T) {
	e := FromPanic("engine.pool", "boom", []byte("stack"))
	if !errors.Is(e, ErrPanic) {
		t.Fatal("FromPanic not matched by ErrPanic")
	}
	if string(e.Stack) != "stack" {
		t.Fatalf("Stack = %q", e.Stack)
	}
	if got, want := e.Error(), "engine.pool: recovered panic: boom"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	// Panicking with an error keeps the cause reachable.
	cause := errors.New("cause")
	if !errors.Is(FromPanic("op", cause, nil), cause) {
		t.Fatal("error panic value not reachable via errors.Is")
	}
}

func TestCancelled(t *testing.T) {
	e := Cancelled("engine.pool", context.Canceled)
	if !errors.Is(e, ErrCancelled) || !errors.Is(e, context.Canceled) {
		t.Fatal("Cancelled must match both ErrCancelled and the context cause")
	}
	if got, want := e.Error(), "engine.pool: cancelled: context canceled"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestCodeString(t *testing.T) {
	want := map[Code]string{
		CodeInternal:     "internal",
		CodeInvalidInput: "invalid_input",
		CodeNotPD:        "not_pd",
		CodeDiverged:     "diverged",
		CodeCancelled:    "cancelled",
		CodePanic:        "panic",
		CodeOverload:     "overload",
		CodeUnavailable:  "unavailable",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Code(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
}
