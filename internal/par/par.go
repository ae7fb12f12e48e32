// Package par provides the ordered worker pool underneath the
// experiment harness: it fans a fixed set of independent tasks out
// across goroutines while returning results in submission order, so a
// parallel sweep reduces to bit-identical aggregates as a serial one.
// Its one user is the sweep funnel of internal/core (runBatch).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is the structured error a recovered task panic converts
// into: the task keeps its slot in the result order and the rest of the
// batch keeps running on the pool.
type PanicError struct {
	// Index is the submission index of the task that panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", e.Index, e.Value)
}

// Workers normalizes a worker-count knob: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS(0)), and the count is capped
// at n, the number of tasks.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(0..n-1) on a pool of the given number of workers
// (<= 0 = GOMAXPROCS) and returns the n results in submission order.
//
// A task that panics is recovered and reported as a *PanicError for its
// index; other tasks are unaffected. The first failing index (lowest,
// for determinism) stops further dispatch and is returned as the error
// alongside the partial results; already-started tasks finish. Context
// cancellation likewise stops dispatch, and ctx.Err() is returned if no
// task error outranks it.
func Map[T any](ctx context.Context, workers, n int, fn func(int) (T, error)) ([]T, error) {
	return MapWorker(ctx, workers, n, func(_, i int) (T, error) { return fn(i) })
}

// MapWorker is Map with the executing worker's pool index (0..workers-1)
// exposed to the task — the hook the telemetry span tracker uses to
// attribute jobs to workers. Determinism is unaffected: the worker index
// labels execution, results still return in submission order. The serial
// path runs everything as worker 0.
func MapWorker[T any](ctx context.Context, workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	workers = Workers(workers, n)

	if workers == 1 {
		// Serial fast path: no goroutines, identical semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i], errs[i] = protect(0, i, fn)
			if errs[i] != nil {
				return out, errs[i]
			}
		}
		return out, nil
	}

	// Dispatch indices to the pool; the first failure cancels further
	// dispatch but lets in-flight tasks complete.
	dispatch, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-dispatch.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				var err error
				out[i], err = protect(worker, i, fn)
				if err != nil {
					errs[i] = err
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// protect runs fn(worker, i), converting a panic into a *PanicError.
func protect[T any](worker, i int, fn func(int, int) (T, error)) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}
