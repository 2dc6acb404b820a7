package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestReduceFoldsInIndexOrder: for any worker count, fold must see
// exactly the indices 0..n-1, each once, strictly ascending, with the
// job's own result — the same sequence Map + a serial fold would give.
func TestReduceFoldsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		var got []int
		err := Reduce(50, workers, nil,
			func(i int) (int, error) { return i * i, nil },
			func(i int, v int) {
				if v != i*i {
					t.Fatalf("workers=%d: fold(%d, %d), want value %d", workers, i, v, i*i)
				}
				got = append(got, i)
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: folded %d jobs, want 50", workers, len(got))
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: fold order %v not strictly ascending", workers, got)
			}
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	err := Reduce(0, 4,
		nil,
		func(i int) (int, error) { return 0, nil },
		func(i int, v int) { t.Fatal("fold called for an empty job set") })
	if err != nil {
		t.Fatalf("Reduce(0) = %v, want nil", err)
	}
}

// TestReduceErrorSemanticsMatchMap: the lowest failing index is
// reported, everything below it is folded, nothing at or above it is.
func TestReduceErrorSemanticsMatchMap(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 3, 16} {
		var folded []int
		err := Reduce(50, workers, nil,
			func(i int) (int, error) {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return 0, fmt.Errorf("job failed: %w", sentinel)
				}
				return i, nil
			},
			func(i int, v int) { folded = append(folded, i) })
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
		if len(folded) != 3 {
			t.Fatalf("workers=%d: folded %v, want exactly [0 1 2]", workers, folded)
		}
		for i, idx := range folded {
			if idx != i {
				t.Fatalf("workers=%d: folded %v, want [0 1 2]", workers, folded)
			}
		}
	}
}

// TestReducePanicIsolation: a panicking job resolves to the usual
// *Error wrapping *Panic, with the process and the jobs below intact.
func TestReducePanicIsolation(t *testing.T) {
	var folded int
	err := Reduce(10, 4, nil,
		func(i int) (int, error) {
			if i == 5 {
				panic("kaboom")
			}
			return i, nil
		},
		func(i int, v int) { folded++ })
	var pe *Error
	if !errors.As(err, &pe) || pe.Index != 5 {
		t.Fatalf("error %v, want *pool.Error at index 5", err)
	}
	var pp *Panic
	if !errors.As(err, &pp) || pp.Value != "kaboom" {
		t.Fatalf("error %v does not carry the panic value", err)
	}
	if folded != 5 {
		t.Fatalf("folded %d jobs, want the 5 below the panicking index", folded)
	}
}

// TestReduceProgressReachesTotal: the completion hook sees a strictly
// increasing count ending at n.
func TestReduceProgressReachesTotal(t *testing.T) {
	last := 0
	err := Reduce(30, 4,
		func(done int) {
			if done != last+1 {
				t.Fatalf("progress jumped %d -> %d", last, done)
			}
			last = done
		},
		func(i int) (int, error) { return i, nil },
		func(i int, v int) {})
	if err != nil || last != 30 {
		t.Fatalf("err=%v last=%d, want nil/30", err, last)
	}
}

// TestReduceWindowBoundsBuffering pins the flat-memory property: a
// worker never claims a job more than 2×workers ahead of the fold
// cursor, so at most O(workers) results are ever buffered — not O(n).
// The folded count only grows, and at claim time the claimed index was
// under cursor+window, so inside the job the gap is at most the window.
func TestReduceWindowBoundsBuffering(t *testing.T) {
	const workers = 4
	const window = 2 * workers
	var folded atomic.Int64
	err := Reduce(500, workers, nil,
		func(i int) (int, error) {
			if gap := int64(i) - folded.Load(); gap > window {
				t.Errorf("job %d claimed %d ahead of the fold cursor (window %d)", i, gap, window)
			}
			return i, nil
		},
		func(i int, v int) { folded.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
}
