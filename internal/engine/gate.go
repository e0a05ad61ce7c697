package engine

import (
	"context"
	"sync/atomic"

	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// Gate is a two-stage admission controller for a long-running service:
// at most Workers acquisitions run concurrently, at most Queue callers
// wait for a slot, and everything beyond that is shed immediately with
// a tecerr.CodeOverload error. Shedding at admission is the
// backpressure contract — a bounded queue converts overload into fast
// 429s instead of an ever-growing backlog of requests whose clients
// have long since given up.
//
// A Gate publishes its load under "<name>.*" when observability is on:
// admitted/shed/abandoned counters, inflight and queue_depth gauges,
// and a queue_wait_ns histogram (time from arrival to slot grant).
type Gate struct {
	metric string
	slots  chan struct{}
	queue  int64

	queued   atomic.Int64 // callers waiting for a slot
	inflight atomic.Int64 // callers holding a slot
}

// NewGate builds a gate with the given concurrency and queue bounds.
// workers <= 0 selects 1; queue < 0 selects 0 (admit only when a slot
// is immediately free). name is the metric namespace (e.g.
// "tecserve.gate").
func NewGate(name string, workers, queue int) *Gate {
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Gate{
		metric: name,
		slots:  make(chan struct{}, workers),
		queue:  int64(queue),
	}
}

// Inflight returns the number of callers currently holding a slot.
func (g *Gate) Inflight() int { return int(g.inflight.Load()) }

// Queued returns the number of callers currently waiting for a slot.
func (g *Gate) Queued() int { return int(g.queued.Load()) }

// Acquire admits the caller: it waits (bounded by the queue cap) for a
// worker slot and returns a release func that MUST be called exactly
// once when the work finishes. It fails fast with a
// tecerr.CodeOverload error when the queue is full, and with a
// tecerr.CodeCancelled error when ctx expires while waiting — the
// caller never runs in either case.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	r := obs.Enabled()
	// Fast path: a free slot admits without queueing.
	select {
	case g.slots <- struct{}{}:
		g.granted(r, 0, 0)
		return g.releaseFunc(r), nil
	default:
	}
	if q := g.queued.Add(1); q > g.queue {
		g.queued.Add(-1)
		if r != nil {
			r.Counter(g.metric + ".shed").Inc()
		}
		return nil, tecerr.Newf(tecerr.CodeOverload, "engine.gate",
			"engine: admission queue full (%d running, %d waiting)", cap(g.slots), g.queue)
	}
	var start int64
	if r != nil {
		start = r.Now()
		r.Gauge(g.metric + ".queue_depth").Set(g.queued.Load())
	}
	select {
	case g.slots <- struct{}{}:
		g.queued.Add(-1)
		g.granted(r, start, 1)
		return g.releaseFunc(r), nil
	case <-ctx.Done():
		g.queued.Add(-1)
		if r != nil {
			r.Counter(g.metric + ".abandoned").Inc()
			r.Gauge(g.metric + ".queue_depth").Set(g.queued.Load())
		}
		return nil, tecerr.Cancelled("engine.gate", context.Cause(ctx))
	}
}

// granted records a slot grant. queuedPath is 1 when the caller waited.
func (g *Gate) granted(r *obs.Registry, start int64, queuedPath int64) {
	g.inflight.Add(1)
	if r == nil {
		return
	}
	r.Counter(g.metric + ".admitted").Inc()
	r.Gauge(g.metric + ".inflight").Set(g.inflight.Load())
	r.Gauge(g.metric + ".queue_depth").Set(g.queued.Load())
	if queuedPath == 1 {
		r.ObserveSince(g.metric+".queue_wait_ns", start)
	} else {
		r.Histogram(g.metric + ".queue_wait_ns").Observe(0)
	}
}

// releaseFunc builds the slot-returning closure handed to an admitted
// caller.
func (g *Gate) releaseFunc(r *obs.Registry) func() {
	return func() {
		g.inflight.Add(-1)
		<-g.slots
		if r != nil {
			r.Gauge(g.metric + ".inflight").Set(g.inflight.Load())
		}
	}
}

// Drain waits until no caller holds a slot, or ctx expires (returning
// a tecerr.CodeCancelled error). It works by acquiring every worker
// slot, so it must only be called once new Acquire traffic has been
// cut off upstream (a draining server rejects before the gate);
// concurrent Acquire calls racing a Drain would be starved, not
// failed. The gate is unusable after a successful Drain — it is the
// last act of a shutting-down server.
func (g *Gate) Drain(ctx context.Context) error {
	for i := 0; i < cap(g.slots); i++ {
		select {
		case g.slots <- struct{}{}:
		case <-ctx.Done():
			return tecerr.Wrapf(tecerr.CodeCancelled, "engine.gate", context.Cause(ctx),
				"engine: drain abandoned with %d request(s) still in flight", g.Inflight())
		}
	}
	return nil
}
