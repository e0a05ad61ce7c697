// Command tecserve is the fault-tolerant thermal-solve service: the
// core solver library behind an HTTP+JSON API with admission control,
// backpressure, per-request deadlines, panic isolation, and graceful
// drain. See internal/serve for the pipeline and DESIGN.md §14 for the
// architecture and the status-code contract.
//
// Endpoints (all POST, JSON bodies):
//
//	/v1/solve             steady-state field at one supply current
//	/v1/optimize-current  optimal shared supply current (Section V.C)
//	/v1/runaway-limit     thermal-runaway current lambda_m (Theorem 2)
//	/v1/sweep             h_kl over a current sweep (Figure 6); partial
//	                      results are flushed on deadline expiry
//	/healthz              200 serving, 503 draining (GET)
//	/metrics              metric snapshot (GET)
//	/debug/pprof/*        pprof handlers
//
// Usage:
//
//	tecserve [-addr localhost:8080] [-workers N] [-queue N]
//	         [-default-deadline 30s] [-max-deadline 2m]
//	         [-drain-timeout 10s]
//	         [-faults SPEC]
//	         [observability flags: -metrics, -trace FILE, -log json, ...]
//
// SIGTERM or SIGINT starts a graceful drain: the server immediately
// answers 503 to new requests, finishes in-flight ones up to
// -drain-timeout, then exits — 0 after a clean drain, the cancelled
// status code when the deadline forced it. An expired -timeout drains
// the same way and exits with the cancelled status.
//
// -faults arms deterministic service-layer chaos (see faults.ParseSpec
// for the grammar), e.g.:
//
//	tecserve -faults 'seed=7;panic@serve.handle:every=10;sleep@serve.handle:prob=0.2,ms=50'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tecopt/internal/faults"
	"tecopt/internal/obs"
	"tecopt/internal/serve"
	"tecopt/internal/tecerr"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
	workers := flag.Int("workers", 0, "max concurrently executing requests (0 = default 4)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the workers; 0 = no waiting room, shed immediately")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "per-request deadline when the request sets none")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on any requested deadline_ms")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on SIGTERM before forcing exit")
	faultsSpec := flag.String("faults", "", "arm deterministic chaos faults (kind@site:params;... — see internal/faults)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(obsFlags.Run("tecserve", func(ctx context.Context) error {
		if flag.NArg() > 0 {
			return tecerr.Newf(tecerr.CodeInvalidInput, "tecserve", "unexpected arguments %q", flag.Args())
		}
		// A service always has a live registry — /metrics must answer even
		// when no observability flag was given. The flag bundle's registry
		// wins when present (it carries the trace/log configuration).
		reg := obs.Enabled()
		if reg == nil {
			reg = obs.New(nil)
			obs.SetGlobal(reg)
			defer obs.SetGlobal(nil)
		}

		if *faultsSpec != "" {
			in, err := faults.ParseSpec(*faultsSpec)
			if err != nil {
				return err
			}
			faults.Install(in)
			fmt.Fprintf(os.Stderr, "tecserve: CHAOS MODE — fault injection armed: %s\n", *faultsSpec)
		}

		srv := serve.New(serve.Options{
			Workers:         *workers,
			Queue:           cliQueue(*queue),
			DefaultDeadline: *defaultDeadline,
			MaxDeadline:     *maxDeadline,
		})

		mux := http.NewServeMux()
		mux.Handle("/v1/", srv.Handler())
		mux.Handle("/healthz", srv.Handler())
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/debug/", obs.DebugMux(reg))

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return tecerr.Wrapf(tecerr.CodeUnavailable, "tecserve", err, "listen on %s", *addr)
		}
		// The smoke tests and operators parse this line; keep it stable.
		fmt.Printf("tecserve: listening on http://%s\n", ln.Addr())

		httpServer := &http.Server{Handler: mux}
		serveErr := make(chan error, 1)
		go func() { serveErr <- httpServer.Serve(ln) }()

		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "tecserve: %v — draining (timeout %s)\n", sig, *drainTimeout)
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "tecserve: -timeout expired — draining (timeout %s)\n", *drainTimeout)
		case err := <-serveErr:
			return tecerr.Wrapf(tecerr.CodeUnavailable, "tecserve", err, "serve")
		}

		// Drain state machine: refuse new work (503) while in-flight
		// requests finish, bounded by -drain-timeout; only then close the
		// listener. The drain outlives an expired -timeout, so its
		// context drops ctx's deadline.
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
		drainErr := srv.Drain(drainCtx)
		cancel()
		shutCtx, shutCancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		if err := httpServer.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "tecserve: shutdown: %v\n", err)
		}
		shutCancel()
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "tecserve: serve: %v\n", err)
		}
		if drainErr != nil {
			return fmt.Errorf("drain forced: %w", drainErr)
		}
		fmt.Fprintln(os.Stderr, "tecserve: drained cleanly")
		if err := ctx.Err(); err != nil {
			return tecerr.Wrap(tecerr.CodeCancelled, "tecserve", "-timeout expired", err)
		}
		return nil
	}))
}

// cliQueue maps the flag convention (0 = no waiting room) onto the
// Options convention (negative = none, 0 = default).
func cliQueue(q int) int {
	if q == 0 {
		return -1
	}
	return q
}
