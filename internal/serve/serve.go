// Package serve is the long-running thermal-solve service behind
// cmd/tecserve: HTTP+JSON endpoints over the core solver library, with
// robustness as the headline feature. Every request passes through one
// pipeline —
//
//	admission (draining? queue full?) → deadline → gate slot →
//	panic-isolated solve on a cached system → status-mapped response
//
// — so the service degrades predictably instead of falling over:
// overload sheds with 429 + Retry-After (bounded queue, never a
// growing backlog), deadlines cancel work mid-solve and answer 504
// (sweeps flush the points they finished), worker panics become 500s
// without killing the process, and SIGTERM drains gracefully (new
// requests see 503 while in-flight ones finish under a drain
// deadline).
//
// Cross-request performance comes from content addressing: chip +
// deployment hash to a key in a bounded system cache, so repeated
// requests against the same package network share one assembled
// core.System, which owns its base factorization and SMW fast-path
// state. The cache bound also bounds the live fast-path states. Sweep
// points that race on the same (system, current, k, l) are coalesced:
// one computes, the rest wait and share. Request model sizes are capped
// (checkModelSize), so no request can ask for an unbounded assembly.
//
// The package is stdlib-only plus the repo's own internal layers, and
// it deliberately contains no net.Listen call: main owns the listener
// and signal handling, tests own httptest servers.
package serve

import (
	"context"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/engine"
	"tecopt/internal/faults"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// Options configures a Server. The zero value is usable: see the
// field comments for the defaults withDefaults fills.
type Options struct {
	// Workers bounds concurrently executing requests (gate slots).
	// <= 0 selects engine.Pool's GOMAXPROCS default behavior via 0 →
	// defaulted to 4.
	Workers int
	// Queue bounds requests waiting for a worker slot; arrivals beyond
	// it are shed with 429. < 0 means no waiting room (admit only when
	// a slot is free); 0 selects the default 64.
	Queue int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps any requested deadline (default 2m).
	MaxDeadline time.Duration
	// SweepWorkers sets the per-request pool width for sweep points
	// (default: the serial pool — request-level parallelism is the
	// gate's job; raise it for few-clients/huge-sweeps deployments).
	SweepWorkers int
	// MaxSweepPoints bounds the currents array of one sweep request
	// (default 20000).
	MaxSweepPoints int
	// MaxBodyBytes bounds a request body (default 16 MiB).
	MaxBodyBytes int64
	// SystemCache bounds the content-addressed chip+deployment cache
	// (default 16 systems).
	SystemCache int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	switch {
	case o.Queue < 0:
		o.Queue = 0
	case o.Queue == 0:
		o.Queue = 64
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 2 * time.Minute
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = 1
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 20000
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.SystemCache <= 0 {
		o.SystemCache = 16
	}
	return o
}

// Server is the thermal-solve service. Build with New, mount Handler
// on an http.Server, and call Drain on shutdown. All methods are safe
// for concurrent use.
type Server struct {
	opt      Options
	gate     *engine.Gate
	pool     engine.Pool
	systems  *engine.KeyedCache[string, *core.System]
	coal     coalescer
	draining atomic.Bool
	mux      *http.ServeMux
}

// New builds a Server.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:     opt,
		gate:    engine.NewGate("tecserve.gate", opt.Workers, opt.Queue),
		pool:    engine.Pool{Workers: opt.SweepWorkers},
		systems: engine.NewKeyedCache[string, *core.System]("tecserve.system_cache", opt.SystemCache),
	}
	s.coal.init()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.endpoint("solve", s.runSolve))
	s.mux.HandleFunc("/v1/optimize-current", s.endpoint("optimize_current", s.runOptimizeCurrent))
	s.mux.HandleFunc("/v1/runaway-limit", s.endpoint("runaway_limit", s.runRunawayLimit))
	s.mux.HandleFunc("/v1/sweep", s.endpoint("sweep", s.runSweep))
	s.mux.HandleFunc("/healthz", s.healthz)
	return s
}

// Handler returns the service's HTTP handler: the four /v1 endpoints
// plus /healthz. /metrics and pprof are main's to mount (obs.DebugMux)
// so tests and embedders control exposure.
func (s *Server) Handler() http.Handler { return s.mux }

// Gate exposes the admission gate (load introspection for main and
// tests).
func (s *Server) Gate() *engine.Gate { return s.gate }

// SystemCacheStats reports the content-addressed system cache counters
// — the cross-request reuse scoreboard.
func (s *Server) SystemCacheStats() engine.CacheStats { return s.systems.Stats() }

// PublishStats pushes the system cache counters into an obs snapshot;
// register as a snapshot hook so /metrics always reflects the cache.
func (s *Server) PublishStats(r *obs.Registry) { s.systems.PublishStats(r) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain moves the server into the draining state: /healthz flips
// to 503 and every new API request is refused with 503 unavailable.
// In-flight requests are unaffected. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		if r := obs.Enabled(); r != nil {
			r.Counter("tecserve.drain.begun").Inc()
		}
	}
}

// Drain is the graceful-shutdown state machine: stop accepting
// (BeginDrain), then wait for every in-flight request to finish, up to
// ctx's deadline. It returns nil on a clean drain and a
// tecerr.CodeCancelled error when the deadline expired with work still
// running — the caller then force-closes. The server must not be used
// after Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	err := s.gate.Drain(ctx)
	if r := obs.Enabled(); r != nil {
		if err == nil {
			r.Counter("tecserve.drain.clean").Inc()
		} else {
			r.Counter("tecserve.drain.forced").Inc()
		}
	}
	return err
}

// healthz is the liveness/readiness probe: 200 while serving, 503
// while draining (load balancers stop routing before the listener
// closes).
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// runProtected executes one admitted request body with panic
// isolation: a panicking solve becomes a tecerr.CodePanic error (one
// 500 response), never a crashed process. The faults hook lets chaos
// runs inject exactly such panics, typed errors, and latency.
func runProtected(ctx context.Context, op string, run func(context.Context) (any, error)) (result any, err error) {
	defer func() {
		if v := recover(); v != nil {
			result, err = nil, tecerr.FromPanic(op, v, debug.Stack())
		}
	}()
	if err := faults.Check(faults.SiteServeHandle); err != nil {
		return nil, err
	}
	return run(ctx)
}
