package serve

import (
	"context"
	"runtime/debug"
	"sync"

	"tecopt/internal/core"
	"tecopt/internal/tecerr"
)

// pointKey identifies one sweep point computation. The system pointer
// stands in for the content hash (resolveSystem interns systems, so
// identical chip+deployment requests share the pointer), which makes
// the key comparable without re-hashing per point.
type pointKey struct {
	sys     *core.System
	current float64
	k, l    int
}

// pointCall is one in-flight point computation: the leader fills v/err
// and closes done; followers wait on done.
type pointCall struct {
	done chan struct{}
	v    float64
	err  error
}

// coalescer deduplicates identical in-flight sweep points across
// concurrent requests (single-flight): the first arrival computes, the
// rest wait and share the result. Unlike a cache it holds nothing
// after the computation finishes — completed values belong to the
// factorization/solver caches below; this only collapses the
// thundering herd of simultaneous identical work.
type coalescer struct {
	mu       sync.Mutex
	inflight map[pointKey]*pointCall
}

func (c *coalescer) init() {
	c.inflight = make(map[pointKey]*pointCall)
}

// do computes the point for key, coalescing with an identical
// in-flight computation when one exists. shared reports whether this
// call piggybacked instead of computing. Followers respect their own
// ctx while waiting; and when the leader's request was cancelled (its
// error, not ours), a follower with a live context recomputes rather
// than inheriting a cancellation it never suffered.
func (c *coalescer) do(ctx context.Context, key pointKey, compute func() (float64, error)) (v float64, shared bool, err error) {
	c.mu.Lock()
	if p, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-p.done:
		case <-ctx.Done():
			return 0, true, tecerr.Cancelled("serve.coalesce", context.Cause(ctx))
		}
		if p.err != nil && tecerr.CodeOf(p.err) == tecerr.CodeCancelled && ctx.Err() == nil {
			v, err := compute()
			return v, true, err
		}
		return p.v, true, p.err
	}
	p := &pointCall{done: make(chan struct{})}
	c.inflight[key] = p
	c.mu.Unlock()

	// Free the key and release the followers even when compute panics
	// (the pool recovers the panic further up); otherwise every later
	// identical point would wait out its deadline behind a leader that
	// is gone. Followers get a CodePanic error, and the re-panic keeps
	// the leader's own CodePanic report and stack.
	defer func() {
		r := recover()
		if r != nil {
			p.err = tecerr.FromPanic("serve.coalesce", r, debug.Stack())
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(p.done)
		if r != nil {
			panic(r)
		}
	}()
	p.v, p.err = compute()
	return p.v, false, p.err
}
