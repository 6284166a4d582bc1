package panicsafe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDoPassesThroughResults(t *testing.T) {
	if err := Do(nil); err != nil {
		t.Fatalf("nil func: %v", err)
	}
	if err := Do(func() error { return nil }); err != nil {
		t.Fatalf("clean func: %v", err)
	}
	want := errors.New("boom")
	if err := Do(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("error not passed through: %v", err)
	}
}

func TestDoRecoversPanicWithStack(t *testing.T) {
	err := Do(func() error { panic("exploded in flight") })
	if err == nil {
		t.Fatal("panic must surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T", err)
	}
	if pe.Value != "exploded in flight" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if !strings.Contains(err.Error(), "exploded in flight") {
		t.Fatalf("message lacks panic value: %s", err)
	}
	// The stack must name this test's frames, not just the recover site.
	if !strings.Contains(string(pe.Stack), "TestDoRecoversPanicWithStack") {
		t.Fatalf("stack does not reach the panicking frame:\n%s", pe.Stack)
	}
}

func TestDoRecoversNonStringPanic(t *testing.T) {
	err := Do(func() error { panic(errors.New("typed")) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T", err)
	}
	if !strings.Contains(err.Error(), "typed") {
		t.Fatalf("message %q", err.Error())
	}
}

// TestRunJobsRecoversPanic: a panicking job must surface as a *PanicError
// from the pool instead of crashing the process, and the pool must still
// drain cleanly.
func TestRunJobsRecoversPanic(t *testing.T) {
	ran := make([]bool, 64)
	err := RunJobs(context.Background(), 4, 64, func(si int) error {
		ran[si] = true
		if si == 3 {
			panic("injected worker panic")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic must surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "injected worker panic") {
		t.Fatalf("error lacks panic value: %v", err)
	}
	if !ran[3] {
		t.Fatal("panicking job never ran")
	}
}

func TestRunJobsCancelStopsPickup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var count int
	err := RunJobs(ctx, 1, 100, func(si int) error {
		count++
		if si == 0 {
			cancel() // cancel from inside the first job
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count != 1 {
		t.Fatalf("ran %d jobs after cancellation, want 1", count)
	}
}

// TestRunJobsErrorNoDeadlock is the regression test for the feed deadlock:
// with an unbuffered jobs channel, a worker returning early on a failing
// job left the feed loop blocked forever. The buffered channel must surface
// the error promptly instead.
func TestRunJobsErrorNoDeadlock(t *testing.T) {
	boom := errors.New("injected source failure")
	done := make(chan error, 1)
	go func() {
		done <- RunJobs(context.Background(), 2, 200, func(si int) error {
			if si < 2 {
				return boom // fail every worker's first job
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want injected failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunJobs deadlocked after worker error")
	}
}

// TestRunJobsFirstErrorInJobOrder: errors are kept per job, a real failure
// outranks a cancellation that sorts before it, and among cancellations the
// first in job order is returned. Eight workers over eight jobs with three
// failing ones drain every job whatever the schedule, so the outcome is
// deterministic.
func TestRunJobsFirstErrorInJobOrder(t *testing.T) {
	failAt := errors.New("job 5 failed")
	err := RunJobs(context.Background(), 8, 8, func(i int) error {
		switch i {
		case 2:
			return fmt.Errorf("job 2: %w", context.Canceled)
		case 5:
			return failAt
		case 7:
			return errors.New("job 7 failed")
		}
		return nil
	})
	if !errors.Is(err, failAt) {
		t.Fatalf("err = %v, want job 5's failure", err)
	}
	err = RunJobs(context.Background(), 8, 8, func(i int) error {
		switch i {
		case 1:
			return fmt.Errorf("job 1: %w", context.DeadlineExceeded)
		case 4:
			return context.Canceled
		}
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || !strings.HasPrefix(err.Error(), "job 1:") {
		t.Fatalf("err = %v, want job 1's cancellation", err)
	}
}

// TestRunJobsClampsWorkers: the pool never runs more than min(workers, n)
// jobs at once, and a worker count below one still runs every job.
func TestRunJobsClampsWorkers(t *testing.T) {
	for _, c := range []struct{ workers, n, peak int }{{0, 5, 1}, {-3, 5, 1}, {3, 40, 3}, {16, 2, 2}} {
		var mu sync.Mutex
		active, peak, ran := 0, 0, 0
		err := RunJobs(context.Background(), c.workers, c.n, func(int) error {
			mu.Lock()
			active++
			ran++
			peak = max(peak, active)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		})
		if err != nil || ran != c.n || peak > c.peak {
			t.Errorf("workers=%d n=%d: err %v, ran %d jobs, peak %d (want ≤ %d)", c.workers, c.n, err, ran, peak, c.peak)
		}
	}
}
