package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolMapComputesEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		p := Pool{Workers: workers}
		n := 101
		out := make([]int, n)
		if err := p.MapCtx(context.Background(), n, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestPoolMapEmpty(t *testing.T) {
	called := false
	if err := (Pool{}).MapCtx(context.Background(), 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n = 0")
	}
}

func TestPoolMapLowestIndexError(t *testing.T) {
	// Several indices fail; the reported error must always be the one
	// the serial loop would hit first, at any worker count.
	fail := map[int]bool{5: true, 17: true, 60: true}
	for _, workers := range []int{1, 2, 8} {
		err := Pool{Workers: workers}.MapCtx(context.Background(), 100, func(i int) error {
			if fail[i] {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at 5" {
			t.Fatalf("workers=%d: err = %v, want boom at 5", workers, err)
		}
	}
}

func TestPoolMapStopsClaimingAfterError(t *testing.T) {
	// After an early failure the pool should not chew through the whole
	// index space. With one worker the loop must stop immediately.
	var calls atomic.Int64
	err := Serial.MapCtx(context.Background(), 1000, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("serial pool made %d calls after failing at index 3, want 4", got)
	}
}

func TestPoolMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	err := Pool{Workers: workers}.MapCtx(context.Background(), 200, func(i int) error {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		runtime.Gosched()
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, cap is %d", p, workers)
	}
}

func TestPoolSerialSpawnsNoGoroutines(t *testing.T) {
	// Workers == 1 must run on the calling goroutine (the documented
	// pure-serial fallback): fn can prove it by writing to a variable
	// without synchronization under -race.
	sum := 0
	if err := Serial.MapCtx(context.Background(), 50, func(i int) error {
		sum += i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 49*50/2 {
		t.Fatalf("sum = %d", sum)
	}
}
