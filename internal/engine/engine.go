// Package engine is the parallel solve-execution layer of the
// reproduction: a bounded worker pool for embarrassingly parallel index
// spaces (Table I chips, Conjecture-1 trials, current-grid sweeps,
// H-column solves), the admission gate of the HTTP service, and the
// bounded LRU (KeyedCache) behind the service's content-addressed
// system cache. It knows nothing of the numerical stack: solver state
// belongs to the core.System it describes.
//
// Everything is stdlib-only (sync, sync/atomic, container/list). The
// pool guarantees deterministic results: work items are identified by
// index, callers write into index-addressed slices, and the error
// reported for a failed run is always the one at the lowest index, so
// output is byte-identical to the serial loop at any worker count.
package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tecopt/internal/faults"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// Pool is a bounded worker pool. The zero value runs with
// runtime.GOMAXPROCS(0) workers; Workers == 1 is the pure-serial
// fallback (a plain loop on the calling goroutine, no goroutines
// spawned).
type Pool struct {
	// Workers caps concurrency. <= 0 means GOMAXPROCS; 1 runs serially.
	Workers int
}

// Serial is the explicit serial-execution pool.
var Serial = Pool{Workers: 1}

// workers resolves the effective worker count.
func (p Pool) workers() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// MapCtx runs fn(i) for every i in [0, n), with at most p.Workers calls
// in flight at once. fn must write its result into caller-owned storage
// at index i; MapCtx itself imposes no ordering on completion, which is
// why results must be index-addressed.
//
// Error contract: if any fn returns a non-nil error, MapCtx returns the
// error with the lowest index, matching what the serial loop would have
// reported first (task errors are returned as-is, never wrapped).
// Workers stop claiming new indices once an error is observed, but
// indices below the failing one are always evaluated, so the winning
// error is deterministic.
//
// Panic contract: a panicking task cannot crash or deadlock the
// process. The panic is recovered, its goroutine stack captured, and it
// enters the error contract above as a tecerr.CodePanic error at the
// panicking index (match with errors.Is(err, tecerr.ErrPanic)).
//
// Cancellation: workers stop claiming new indices once ctx is done, and
// MapCtx returns a tecerr.CodeCancelled error wrapping ctx.Err().
// Cancellation is checked between tasks, so an in-flight fn always runs
// to completion; fn implementations that want finer granularity must
// watch ctx themselves. When cancellation and a task failure race, the
// task's lowest-index error wins if any task completed with one; the
// deterministic-winner guarantee otherwise applies only to uncancelled
// runs (cancellation legitimately skips indices below a would-be
// failure).
func (p Pool) MapCtx(ctx context.Context, n int, fn func(i int) error) error {
	return p.MapTasksCtx(ctx, n, func(_ context.Context, i int) error { return fn(i) })
}

// MapTasksCtx is MapCtx for context-aware tasks: each fn call receives
// a task-scoped context derived from ctx. With a registry installed,
// each task runs inside an "engine.pool.task" span under the
// surrounding "engine.pool.map" span. When a trace is recorded, each
// worker goroutine also gets its own track (1..W; the serial path
// inherits the caller's track), so callers that start spans inside fn
// with the task context get correct parent links and worker
// attribution.
func (p Pool) MapTasksCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return tecerr.Cancelled("engine.pool", err)
	}
	r := obs.Enabled()
	if r != nil {
		// Wrap fn so every task reports its queue wait (map entry to
		// task start) and run time (the task span), and the queue-depth
		// gauge tracks unclaimed work. The wrapper is installed only when
		// a registry exists: the disabled path costs one atomic load +
		// nil check.
		var sp obs.Span
		ctx, sp = r.StartSpanCtx(ctx, "engine.pool.map")
		defer sp.End()
		r.Counter("engine.pool.maps").Inc()
		r.Counter("engine.pool.tasks").Add(uint64(n))
		mapStart := r.Now()
		inner := fn
		fn = func(tctx context.Context, i int) error {
			r.ObserveSince("engine.pool.wait_ns", mapStart)
			r.Gauge("engine.pool.queue_depth").Set(int64(n - 1 - i))
			tctx, tsp := r.StartSpanCtx(tctx, "engine.pool.task")
			tsp.AnnotateInt("index", int64(i))
			defer tsp.End()
			return inner(tctx, i)
		}
	}
	w := p.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return tecerr.Cancelled("engine.pool", err)
			}
			if err := runTask(ctx, fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		wctx := ctx
		if r.Tracing() {
			// Each worker is one track: spans recorded inside its tasks
			// render as one lane per worker in the Perfetto view.
			wctx = obs.ContextWithTrack(ctx, int64(k+1))
		}
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || cancelled.Load() {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runTask(wctx, fn, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Indices are claimed in ascending order, so every index below a
	// failed one has been evaluated: the first non-nil error here is
	// exactly the serial loop's first error.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled.Load() {
		return tecerr.Cancelled("engine.pool", context.Cause(ctx))
	}
	return nil
}

// runTask executes one task with panic isolation: a panic inside fn is
// recovered and converted to a tecerr.CodePanic error carrying the
// goroutine stack, so it flows through MapCtx's normal error contract
// instead of unwinding a worker (which would kill the process and, by
// taking wg.Done with it on a non-main goroutine, could never be
// recovered by the caller). The faults hook lets chaos tests inject
// exactly such panics.
func runTask(ctx context.Context, fn func(context.Context, int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = tecerr.FromPanic("engine.pool", v, debug.Stack())
		}
	}()
	if err := faults.Check(faults.SitePoolTask); err != nil {
		return err
	}
	return fn(ctx, i)
}
