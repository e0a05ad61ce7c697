// Package tecerr is the typed error taxonomy of the solver stack.
//
// Every failure mode that matters to a caller — malformed input, loss of
// positive definiteness at the runaway limit, iterative divergence,
// cancellation, recovered panics, shed or refused service work — gets
// a Code, and every error produced by the solver packages (sparse,
// thermal, core, engine) is either a *Error carrying one of those codes
// or wraps one. Callers match on the exported code sentinels with
// errors.Is:
//
//	if errors.Is(err, tecerr.ErrNotPD) { ... beyond lambda_m ... }
//
// which matches any *Error with CodeNotPD anywhere in the chain,
// regardless of which package produced it. CLIs map the code to a
// distinct process exit status with ExitCode.
//
// The package is a leaf: it imports only the standard library, so every
// layer of the stack can depend on it without cycles.
package tecerr

import (
	"context"
	"errors"
	"fmt"
)

// Code classifies a solver failure.
type Code int

const (
	// CodeInternal is the catch-all for failures with no better class.
	CodeInternal Code = iota
	// CodeInvalidInput marks malformed caller input: NaN/Inf parameters,
	// negative conductances, mismatched vector lengths, bad tilings.
	CodeInvalidInput
	// CodeNotPD marks a loss of positive definiteness — the operating
	// point is at or beyond the thermal-runaway limit lambda_m.
	CodeNotPD
	// CodeDiverged marks an iterative solve that failed to converge or
	// actively diverged (NaN/Inf or growing residuals).
	CodeDiverged
	// CodeCancelled marks work cut short by context cancellation or a
	// deadline.
	CodeCancelled
	// CodePanic marks a panic recovered inside a worker and converted to
	// an error instead of crashing the process.
	CodePanic
	// CodeOverload marks work rejected by admission control: a bounded
	// queue was full and the request was shed rather than accepted into
	// an ever-growing backlog. The work never ran; retrying later is
	// legitimate.
	CodeOverload
	// CodeUnavailable marks work refused because the serving process is
	// shutting down (draining) or otherwise not accepting requests.
	CodeUnavailable

	// numCodes counts the codes above. New codes MUST be added above
	// this line so the exhaustive-mapping tests (String, ExitCode,
	// HTTPStatus) iterate them automatically — an unmapped code fails
	// TestCodeMappingsExhaustive the moment it exists.
	numCodes
)

// String returns the code's stable lowercase name.
func (c Code) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeInvalidInput:
		return "invalid_input"
	case CodeNotPD:
		return "not_pd"
	case CodeDiverged:
		return "diverged"
	case CodeCancelled:
		return "cancelled"
	case CodePanic:
		return "panic"
	case CodeOverload:
		return "overload"
	case CodeUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// sentinel is the target type behind the exported Err* values. A
// *Error matches a sentinel (via Error.Is) when their codes agree, so
// errors.Is(err, tecerr.ErrDiverged) is a code test, not an identity
// test.
type sentinel struct{ code Code }

func (s sentinel) Error() string { return "tecerr: " + s.code.String() }

// Code sentinels for errors.Is matching. These are classes, not
// instances: solver packages return *Error values (or their own typed
// sentinels built on *Error), and those match here by code.
var (
	ErrInvalidInput error = sentinel{CodeInvalidInput}
	ErrNotPD        error = sentinel{CodeNotPD}
	ErrDiverged     error = sentinel{CodeDiverged}
	ErrCancelled    error = sentinel{CodeCancelled}
	ErrPanic        error = sentinel{CodePanic}
	ErrOverload     error = sentinel{CodeOverload}
	ErrUnavailable  error = sentinel{CodeUnavailable}
)

// Error is a classified solver error. Msg carries the complete
// human-readable message (package-prefixed, like the fmt.Errorf
// strings it replaced); Op names the operation for programmatic
// grouping; Err is the wrapped cause, if any.
type Error struct {
	Code Code
	Op   string // e.g. "sparse.cg", "thermal.factor", "engine.pool"
	Msg  string
	Err  error
	// Stack is the recovered goroutine stack, set only for CodePanic.
	Stack []byte
}

// Error returns Msg, with the wrapped cause appended when present.
func (e *Error) Error() string {
	switch {
	case e.Err == nil:
		return e.Msg
	case e.Msg == "":
		return e.Err.Error()
	default:
		return e.Msg + ": " + e.Err.Error()
	}
}

// Unwrap exposes the wrapped cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches the code sentinels: errors.Is(e, tecerr.ErrNotPD) is true
// for any *Error with CodeNotPD. Two distinct *Error values never match
// each other through Is — identity comparison is left to errors.Is's
// default == test, so package-level sentinels built as *Error values
// keep their exact-identity semantics.
func (e *Error) Is(target error) bool {
	s, ok := target.(sentinel)
	return ok && e.Code == s.code
}

// New builds a classified error with a fixed message.
func New(code Code, op, msg string) *Error {
	return &Error{Code: code, Op: op, Msg: msg}
}

// Newf builds a classified error with a formatted message.
func Newf(code Code, op, format string, args ...any) *Error {
	return &Error{Code: code, Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Wrap classifies an existing error under a fixed message prefix.
func Wrap(code Code, op, msg string, err error) *Error {
	return &Error{Code: code, Op: op, Msg: msg, Err: err}
}

// Wrapf classifies an existing error under a formatted message prefix.
func Wrapf(code Code, op string, err error, format string, args ...any) *Error {
	return &Error{Code: code, Op: op, Msg: fmt.Sprintf(format, args...), Err: err}
}

// FromPanic converts a recovered panic value and its goroutine stack to
// a CodePanic error. Use it from a recover() handler:
//
//	defer func() {
//		if v := recover(); v != nil {
//			err = tecerr.FromPanic("engine.pool", v, debug.Stack())
//		}
//	}()
func FromPanic(op string, v any, stack []byte) *Error {
	e := &Error{Code: CodePanic, Op: op, Msg: fmt.Sprintf("%s: recovered panic: %v", op, v), Stack: stack}
	if cause, ok := v.(error); ok {
		e.Err = cause
		e.Msg = fmt.Sprintf("%s: recovered panic", op)
	}
	return e
}

// Cancelled wraps a context error (ctx.Err()) as CodeCancelled,
// prefixed with op.
func Cancelled(op string, cause error) *Error {
	return &Error{Code: CodeCancelled, Op: op, Msg: op + ": cancelled", Err: cause}
}

// CodeOf extracts the classification of err: the code of the outermost
// *Error in the chain, or CodeCancelled for bare context errors, or
// CodeInternal for anything unclassified (including nil — callers
// should test nil first).
func CodeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	var s sentinel
	if errors.As(err, &s) {
		return s.code
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return CodeCancelled
	}
	return CodeInternal
}

// exitStatus is the one-per-code process exit table. ok is false for a
// code the table does not know, which the exhaustive-mapping test turns
// into a failure the moment a new code is added unmapped. Status 6
// belonged to a retired code; it stays unused so that every other status
// keeps its meaning for scripts.
func (c Code) exitStatus() (status int, ok bool) {
	switch c {
	case CodeInternal:
		return 1, true
	case CodeInvalidInput:
		return 2, true
	case CodeNotPD:
		return 3, true
	case CodeDiverged:
		return 4, true
	case CodeCancelled:
		return 5, true
	case CodePanic:
		return 7, true
	case CodeOverload:
		return 8, true
	case CodeUnavailable:
		return 9, true
	}
	return 1, false
}

// ExitCode maps an error to a process exit status, one per code, so
// scripts driving the CLIs can distinguish "bad input" from "beyond the
// runaway limit" from "timed out". nil maps to 0 and unclassified
// errors to 1.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	status, _ := CodeOf(err).exitStatus()
	return status
}
