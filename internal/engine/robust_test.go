package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tecopt/internal/tecerr"
)

func TestMapRecoversTaskPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var ran atomic.Int64
			err := Pool{Workers: workers}.MapCtx(context.Background(), 32, func(i int) error {
				if i == 5 {
					panic("kaboom")
				}
				ran.Add(1)
				return nil
			})
			if err == nil {
				t.Fatal("panicking task returned nil error")
			}
			if !errors.Is(err, tecerr.ErrPanic) {
				t.Fatalf("err = %v, want tecerr.ErrPanic match", err)
			}
			var te *tecerr.Error
			if !errors.As(err, &te) {
				t.Fatalf("err %T is not *tecerr.Error", err)
			}
			if len(te.Stack) == 0 {
				t.Error("recovered panic carries no stack")
			}
			if !strings.Contains(te.Error(), "kaboom") {
				t.Errorf("panic value lost from message %q", te.Error())
			}
		})
	}
}

func TestMapPanicKeepsLowestIndexErrorContract(t *testing.T) {
	// A panic at index 3 and a plain error at index 7: the panic error
	// wins at every worker count, exactly like a plain error at 3 would.
	for _, workers := range []int{1, 2, 8} {
		err := Pool{Workers: workers}.MapCtx(context.Background(), 16, func(i int) error {
			switch i {
			case 3:
				panic("first failure")
			case 7:
				return errors.New("later failure")
			}
			return nil
		})
		if !errors.Is(err, tecerr.ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want the index-3 panic", workers, err)
		}
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Pool{Workers: 4}.MapCtx(ctx, 8, func(i int) error {
		t.Error("task ran under a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, tecerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancelled", err)
	}
}

func TestMapCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			err := Pool{Workers: workers}.MapCtx(ctx, 1000, func(i int) error {
				if ran.Add(1) == 10 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, tecerr.ErrCancelled) {
				t.Fatalf("err = %v, want cancelled", err)
			}
			if n := ran.Load(); n >= 1000 {
				t.Errorf("all %d tasks ran despite mid-run cancellation", n)
			}
		})
	}
}

func TestMapCtxNilErrorOnCompletion(t *testing.T) {
	// A context cancelled only after every index is claimed must not
	// turn a fully successful run into an error.
	err := Pool{Workers: 2}.MapCtx(context.Background(), 64, func(i int) error { return nil })
	if err != nil {
		t.Fatalf("MapCtx = %v", err)
	}
}
