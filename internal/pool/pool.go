// Package pool provides the ordered parallel fan-out primitives behind
// the sweep engine, hvcbench -seeds, and fleet aggregation: run n
// independent jobs across a fixed number of goroutines and either
// return their results in job order (Map) or stream them into an
// index-ordered fold with O(workers) live memory (Reduce), so the
// output (and any aggregation over it) is bit-identical for any worker
// count. The simulation loops the jobs run are single-threaded and
// self-contained, which is what makes this fan-out safe.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// An Error reports the failing job with the lowest index. Map's error
// selection is deterministic: whatever order jobs finish in, the
// returned index is the smallest one whose job failed, and every job
// with a smaller index ran to completion successfully.
type Error struct {
	Index int
	Err   error
}

func (e *Error) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's own error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// A Panic is the error a job that panicked resolves to, wrapped in the
// usual *Error carrying the job index. Capturing the panic inside the
// worker instead of letting it unwind the goroutine matters for two
// reasons: an unrecovered panic on a worker goroutine would kill the
// whole process (not just the failing job), and it would take the
// other in-flight jobs' results with it — where Map's contract is that
// every job below the failing index completes.
type Panic struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("panic: %v\n%s", p.Value, p.Stack) }

// Unwrap exposes a panic value that is itself an error — an
// *invariant.Violation thrown by Failf, typically — so errors.As can
// reach through *Error and *Panic to the typed value.
func (p *Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Map runs fn(0..n-1) on min(workers, n) goroutines and returns the
// results indexed by job, independent of completion order. workers <= 0
// means GOMAXPROCS. fn must be safe for concurrent calls; each call
// receives a distinct index.
//
// On failure Map stops claiming new jobs past the failing index,
// finishes the jobs below it, and returns a *Error for the lowest
// failing index — the same error a serial left-to-right run would have
// hit first.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := work(n, workers, 0, nil, fn, func(i int, v T) int {
		out[i] = v
		return 0
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reduce runs fn(0..n-1) on min(workers, n) goroutines like Map, but
// instead of collecting all n results it streams them into fold in
// strict job-index order: fold(0, v0), fold(1, v1), …, each called
// exactly once, serialized under the pool's internal lock. Only results
// waiting for their turn are buffered, and workers stop claiming jobs
// more than 2×workers ahead of the fold cursor, so live memory is
// O(workers) regardless of n — the property fleet-scale aggregation
// needs where Map's []T would be O(n).
//
// Because the fold order is a function of the job decomposition alone,
// any accumulation inside fold observes the same sequence for any
// worker count. fold must not invoke the pool reentrantly. progress,
// when non-nil, is called after each job finishes, successfully or
// not, with the strictly increasing count of jobs finished so far,
// under the same lock; it observes completion and cannot influence it.
//
// Error semantics match Map: on failure every job below the lowest
// failing index completes and is folded, nothing at or above it is
// folded, and the returned *Error carries that lowest index — the same
// error a serial left-to-right run would have hit first.
func Reduce[T any](n, workers int, progress func(done int), fn func(i int) (T, error), fold func(i int, v T)) error {
	if n <= 0 {
		return nil
	}
	cursor := 0 // lowest job index not yet folded
	pending := make(map[int]T)
	return work(n, workers, 2, progress, fn, func(i int, v T) int {
		// Fold every contiguously completed job. A failed index never
		// gets here, so the cursor parks just below it and later
		// results above stay unfolded, as promised.
		pending[i] = v
		for {
			v, ok := pending[cursor]
			if !ok {
				break
			}
			delete(pending, cursor)
			fold(cursor, v)
			cursor++
		}
		return cursor
	})
}

// work is the worker loop Map and Reduce share. Workers claim job
// indices in order, run each under protect, and hand every success to
// keep under the pool's lock; keep returns the lowest index still
// awaited. With ahead > 0 no worker claims a job ahead×workers or more
// past that cursor; with ahead 0 claiming is unbounded. The lowest
// failing index wins, and nothing past it is claimed.
func work[T any](n, workers, ahead int, progress func(done int), fn func(i int) (T, error), keep func(i int, v T) (cursor int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	window := n
	if ahead > 0 {
		window = ahead * workers
	}
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		next   int
		cursor int
		done   int
		errIdx = -1
		jobErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				// Hold back rather than racing ahead of the cursor; an
				// error releases the gate so everyone can drain out.
				for next < n && next >= cursor+window && (errIdx < 0 || next <= errIdx) {
					cond.Wait()
				}
				if next >= n || (errIdx >= 0 && next > errIdx) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				v, err := protect(fn, i)

				mu.Lock()
				if err != nil {
					if errIdx < 0 || i < errIdx {
						errIdx, jobErr = i, err
					}
				} else {
					cursor = keep(i, v)
				}
				done++
				if progress != nil {
					progress(done)
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return &Error{Index: errIdx, Err: jobErr}
	}
	return nil
}

// protect runs one job, converting a panic into a *Panic error.
func protect[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Panic{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
