package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(20, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v; want nil, nil", got, err)
	}
}

func TestMapReturnsLowestFailingIndex(t *testing.T) {
	sentinel := errors.New("boom")
	// Several jobs fail; the reported index must always be the lowest,
	// for every worker count, even though completion order varies.
	for _, workers := range []int{1, 3, 16} {
		_, err := Map(50, workers, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("job failed: %w", sentinel)
			}
			return i, nil
		})
		var pe *Error
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a *pool.Error", workers, err)
		}
		if pe.Index != 3 {
			t.Fatalf("workers=%d: reported index %d, want 3", workers, pe.Index)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error chain lost the job error", workers)
		}
	}
}

func TestMapRunsJobsConcurrently(t *testing.T) {
	// Job 0 blocks until job 1 runs: only possible if two workers make
	// progress at once.
	started := make(chan struct{})
	got, err := Map(2, 2, func(i int) (int, error) {
		if i == 0 {
			<-started
		} else {
			close(started)
		}
		return i, nil
	})
	if err != nil || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Map = %v, %v", got, err)
	}
}

// TestMapClaimsPastSlowJob pins that Map has no claim window: while
// job 0 runs, the other worker claims every remaining job, where
// Reduce would stop 2×workers past its fold cursor.
func TestMapClaimsPastSlowJob(t *testing.T) {
	const n = 50
	last := make(chan struct{})
	_, err := Map(n, 2, func(i int) (int, error) {
		switch i {
		case 0:
			select {
			case <-last:
			case <-time.After(10 * time.Second):
				return 0, errors.New("job 0 never saw the last job run")
			}
		case n - 1:
			close(last)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapStopsClaimingPastFailure(t *testing.T) {
	// With one worker the claim order is strictly 0,1,2,...: after the
	// failure at index 2 nothing above it may run.
	var mu sync.Mutex
	ran := map[int]bool{}
	_, err := Map(10, 1, func(i int) (int, error) {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == 2 {
			return 0, errors.New("stop here")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	for i := 3; i < 10; i++ {
		if ran[i] {
			t.Fatalf("job %d ran after the failure at 2", i)
		}
	}
}

func TestMapRecoversWorkerPanic(t *testing.T) {
	sentinel := errors.New("invariant blew up")
	_, err := Map(8, 4, func(i int) (int, error) {
		if i == 5 {
			panic(sentinel)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error from the panicking job")
	}
	var je *Error
	if !errors.As(err, &je) || je.Index != 5 {
		t.Fatalf("err = %v, want *Error with Index 5", err)
	}
	var pe *Panic
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *Panic in the chain", err)
	}
	if pe.Value != sentinel {
		t.Fatalf("Panic.Value = %v, want the sentinel", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "pool") {
		t.Fatalf("Panic.Stack missing or unhelpful:\n%s", pe.Stack)
	}
	// The panic value is an error, so errors.Is must reach it through
	// *Error -> *Panic.
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false through %v", err)
	}
}

func TestMapPanicWithNonErrorValue(t *testing.T) {
	_, err := Map(3, 2, func(i int) (int, error) {
		if i == 1 {
			panic("plain string panic")
		}
		return i, nil
	})
	var pe *Panic
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *Panic in the chain", err)
	}
	if pe.Unwrap() != nil {
		t.Fatalf("Unwrap of a non-error panic value = %v, want nil", pe.Unwrap())
	}
	if !strings.Contains(err.Error(), "plain string panic") {
		t.Fatalf("err.Error() = %q, want the panic value in the message", err)
	}
}
