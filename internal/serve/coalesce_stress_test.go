package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tecopt/internal/tecerr"
)

// Coalescer cancellation stress, run under -race by `make serve-chaos`:
// a leader whose request is cancelled mid-compute must not poison the
// followers piled up behind it — each follower with a live context
// recomputes and gets the real value. Repeated rounds race the
// followers against the leader's map-delete/close on every schedule
// the runtime produces.
func TestCoalescerLeaderCancellationStress(t *testing.T) {
	var c coalescer
	c.init()
	key := pointKey{current: 1.5, k: 2, l: 3}

	const rounds = 50
	const followers = 8
	for r := 0; r < rounds; r++ {
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		leaderStarted := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = c.do(leaderCtx, key, func() (float64, error) {
				close(leaderStarted)
				<-leaderCtx.Done()
				return 0, tecerr.Cancelled("serve.point", context.Cause(leaderCtx))
			})
		}()
		<-leaderStarted

		errs := make(chan error, followers)
		vals := make(chan float64, followers)
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, err := c.do(context.Background(), key, func() (float64, error) { return 7, nil })
				vals <- v
				errs <- err
			}()
		}
		cancelLeader()
		wg.Wait()
		close(vals)
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: follower inherited error %v", r, err)
			}
		}
		for v := range vals {
			if int(v) != 7 {
				t.Fatalf("round %d: follower got %v, want 7", r, v)
			}
		}
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n != 0 {
			t.Fatalf("round %d: inflight map holds %d entries after completion", r, n)
		}
	}
}

// A leader whose compute panics must still free its key and release
// the followers waiting on it: each follower returns at once with a
// CodePanic error instead of waiting out its own deadline, the leader's
// panic still propagates to its caller (the pool recovers it there),
// and the next identical point computes afresh.
func TestCoalescerLeaderPanicReleasesFollowers(t *testing.T) {
	var c coalescer
	c.init()
	key := pointKey{current: 2.5, k: 1, l: 1}

	leaderStarted := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _, _ = c.do(context.Background(), key, func() (float64, error) {
			close(leaderStarted)
			<-leaderIn
			panic("kaboom")
		})
	}()
	<-leaderStarted

	// The follower's own deadline is far away: it must be released by
	// the leader's panic, not by timing out.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	follower := &waitSignal{Context: ctx, waiting: make(chan struct{})}
	type out struct {
		shared bool
		err    error
	}
	followerOut := make(chan out, 1)
	go func() {
		_, shared, err := c.do(follower, key, func() (float64, error) {
			t.Error("follower recomputed behind an in-flight leader")
			return 0, nil
		})
		followerOut <- out{shared, err}
	}()
	<-follower.waiting
	close(leaderIn)

	if v := <-leaderPanic; v != "kaboom" {
		t.Errorf("leader recovered %v, want the original panic value", v)
	}
	select {
	case f := <-followerOut:
		if !f.shared || !errors.Is(f.err, tecerr.ErrPanic) {
			t.Errorf("follower = (shared %v, err %v), want shared with a CodePanic error", f.shared, f.err)
		}
	case <-time.After(time.Second):
		t.Fatal("follower still waiting on a leader that panicked")
	}
	c.mu.Lock()
	n := len(c.inflight)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("inflight map holds %d entries after the leader panicked", n)
	}

	v, shared, err := c.do(context.Background(), key, func() (float64, error) { return 9, nil })
	if err != nil || shared || int(v) != 9 {
		t.Errorf("next do after the panic = (%v, %v, %v), want its own compute (9, false, nil)", v, shared, err)
	}
}

// waitSignal is a context that closes waiting the first time Done is
// called. A coalescer follower asks for Done only when it starts
// waiting on the leader, so a test can release the leader after that
// point without sleeping.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitSignal) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}
