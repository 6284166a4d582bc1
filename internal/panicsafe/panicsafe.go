// Package panicsafe isolates panics: a panicking function is converted into
// an ordinary error carrying the panic value and stack, so one failing
// experiment or measurement worker cannot take down the whole process.
// RunJobs is the module's one bounded job pool: the experiment scheduler,
// the mcast source, block and network pools, the Figure 9 chains and
// ext-steiner's cells run on it. The scheduler also runs each experiment
// under its own Do and records the outcome instead of returning it, so a
// failed or panicking experiment never stops a worker.
package panicsafe

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a recovered panic, preserved as an error.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the goroutine stack at recovery time (debug.Stack).
	Stack []byte
}

// Error implements the error interface, including the stack so a scheduled
// experiment's failure is diagnosable from its RunStats.Err alone.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// Do runs f, converting a panic into a *PanicError. A nil f is a no-op.
// runtime.Goexit is not recoverable and passes through.
func Do(f func() error) (err error) {
	if f == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// RunJobs runs job(0), …, job(n−1) on workers goroutines, clamped to
// [1, n], and returns once every worker has exited. Jobs are handed out in
// index order. A worker checks ctx before picking up each job and runs the
// job under Do, so a panicking job surfaces as a *PanicError. A worker stops
// at its first error, cancellation included; the others go on with the
// remaining jobs.
//
// Errors are recorded per job. The first error in job order that is not a
// cancellation wins, so the caller sees the root cause when a failure and a
// cancellation race; otherwise the first cancellation error is returned.
// When every job ran and none failed, the run is whole and RunJobs reports
// success even if ctx was cancelled meanwhile.
func RunJobs(ctx context.Context, workers, n int, job func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// Buffered to n: every job is queued before any worker starts, so no
	// send can wait on a worker that stopped early.
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				if err := Do(func() error { return job(i) }); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			return err
		}
	}
	return ctxErr
}
