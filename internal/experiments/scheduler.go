package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mtreescale/internal/panicsafe"
	"mtreescale/internal/serve"
)

// ErrHeapLimit marks an experiment aborted by ScheduleOptions.MaxHeapBytes:
// the process heap grew past the soft limit while the experiment ran, so the
// scheduler cancelled it rather than let the whole run die to the OOM killer.
var ErrHeapLimit = errors.New("experiments: heap limit exceeded")

// RunStats is one scheduled experiment's result plus its execution cost.
type RunStats struct {
	// ID is the experiment identifier.
	ID string
	// Result is the experiment output (nil when Err is set).
	Result *Result
	// Wall is the experiment's wall-clock duration.
	Wall time.Duration
	// AllocBytes is the heap allocated while the experiment ran. It is
	// exact for a sequential schedule (parallel == 1); under a parallel
	// schedule the counter is process-global, so concurrent experiments'
	// allocations bleed into each other and the value is approximate.
	AllocBytes uint64
	// Replayed reports that Result came from ScheduleOptions.Replay (a
	// checkpoint) instead of a fresh execution.
	Replayed bool
	// Err is the experiment's failure, if any: the experiment's own error,
	// ctx.Err() when the schedule was cancelled before/while it ran,
	// ErrHeapLimit when the heap guard aborted it, or a *panicsafe.PanicError
	// (with stack) when the experiment panicked.
	Err error
}

// ScheduleOptions configures RunManyCtx.
type ScheduleOptions struct {
	// Parallel is the worker count (0 or negative means GOMAXPROCS).
	Parallel int
	// MaxHeapBytes, when positive, is a soft per-experiment memory guard:
	// while an experiment runs, the scheduler samples runtime.MemStats and
	// cancels that experiment's context with ErrHeapLimit once HeapAlloc
	// exceeds the limit. The guard aborts the experiment, not the process;
	// siblings keep running. The check is also performed synchronously
	// before the experiment starts, so an already-breached limit fails
	// deterministically.
	MaxHeapBytes uint64
	// Replay, when non-nil, is consulted before running each experiment.
	// Returning (result, true) skips execution and records the result with
	// Replayed set — the hook -resume uses to skip checkpointed work.
	Replay func(id string) (*Result, bool)
	// OnComplete, when non-nil, is called once per freshly executed
	// successful experiment, immediately after it finishes. It is invoked
	// from worker goroutines, possibly concurrently; the callback must be
	// safe for concurrent use. Replayed and failed experiments are not
	// reported — the checkpoint writer only wants new, good results.
	OnComplete func(RunStats)
	// Quarantine, when non-nil, is consulted before each experiment and
	// updated after it: an id inside its backoff window is skipped with a
	// serve.ErrQuarantined-wrapped error instead of run, a panic or
	// heap-guard trip strikes the id (exponential backoff before the next
	// retry), and a successful run clears it. The daemon and the scheduler
	// share one registry, so an experiment that kills a batch run is also
	// refused at the serving boundary until its backoff elapses.
	Quarantine *serve.Quarantine
}

// RunMany executes the given experiments concurrently with up to `parallel`
// workers (0 or negative means GOMAXPROCS) and returns their stats in input
// order — the scheduler that lets `mtsim -parallel` exploit independent
// experiments while keeping deterministic, paper-order output. Every
// experiment runs even if an earlier one fails; the first failure in input
// order is returned as the error alongside the full stats slice.
func RunMany(ids []string, p Profile, parallel int) ([]RunStats, error) {
	return RunManyCtx(context.Background(), ids, p, ScheduleOptions{Parallel: parallel})
}

// RunManyCtx is RunMany under a cancellation context and extended scheduling
// options. Cancellation is observed at grid-point granularity inside the
// measurement engines: in-flight experiments return partial work promptly
// with ctx.Err(), unstarted experiments are marked with ctx.Err() without
// running, and already-finished stats are kept — the partial stats slice is
// always returned. A panicking experiment is isolated: its recovered value
// and stack land in its RunStats.Err as a *panicsafe.PanicError while
// sibling experiments complete normally. A panic in one of its Replay,
// Quarantine or OnComplete callbacks is isolated the same way.
func RunManyCtx(ctx context.Context, ids []string, p Profile, opts ScheduleOptions) ([]RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	stats := make([]RunStats, len(ids))
	// A job never fails: it records every outcome, its own panics included,
	// in stats[i], so a failed experiment never stops a worker. RunJobs
	// then only stops handing out jobs once ctx has ended, and the entries
	// it never started are marked with ctx.Err() below.
	_ = panicsafe.RunJobs(ctx, parallel, len(ids), func(i int) error {
		if err := panicsafe.Do(func() error {
			stats[i] = runScheduled(ctx, ids[i], p, opts)
			return nil
		}); err != nil {
			stats[i] = RunStats{ID: ids[i], Err: err}
		}
		return nil
	})
	for i := range stats {
		if stats[i].ID == "" {
			stats[i] = RunStats{ID: ids[i], Err: ctx.Err()}
		}
	}
	for i := range stats {
		if stats[i].Err != nil {
			return stats, fmt.Errorf("experiments: schedule: %s: %w", stats[i].ID, stats[i].Err)
		}
	}
	return stats, nil
}

// runScheduled is one job of RunManyCtx: it consults the context, Replay
// and the quarantine, runs the experiment and reports the outcome to the
// quarantine and OnComplete. The caller runs it under panicsafe.Do, so a
// panicking callback fails this experiment alone, like a panicking
// experiment.
func runScheduled(ctx context.Context, id string, p Profile, opts ScheduleOptions) RunStats {
	if err := ctx.Err(); err != nil {
		return RunStats{ID: id, Err: err}
	}
	if opts.Replay != nil {
		if res, ok := opts.Replay(id); ok {
			return RunStats{ID: id, Result: res, Replayed: true}
		}
	}
	if opts.Quarantine != nil {
		if ok, retry := opts.Quarantine.Allowed(id); !ok {
			return RunStats{ID: id, Err: fmt.Errorf("%w (retry in %s)", serve.ErrQuarantined, retry.Round(time.Millisecond))}
		}
	}
	st := runGuarded(ctx, id, p, opts.MaxHeapBytes)
	if opts.Quarantine != nil {
		reportToQuarantine(opts.Quarantine, id, st.Err)
	}
	if opts.OnComplete != nil && st.Err == nil {
		opts.OnComplete(st)
	}
	return st
}

// reportToQuarantine translates one run outcome into quarantine state: only
// the dangerous failure classes (panic, heap-guard trip) strike the id —
// cancellation and ordinary compute errors say nothing about whether the
// experiment is safe to rerun — and success clears it.
func reportToQuarantine(q *serve.Quarantine, id string, err error) {
	if err == nil {
		q.Clear(id)
		return
	}
	var pe *panicsafe.PanicError
	if errors.As(err, &pe) || errors.Is(err, ErrHeapLimit) {
		q.Report(id, err)
	}
}

// runGuarded executes one experiment with panic isolation and an optional
// soft heap guard, producing its RunStats.
func runGuarded(ctx context.Context, id string, p Profile, maxHeap uint64) RunStats {
	runCtx := ctx
	var stopGuard func()
	if maxHeap > 0 {
		// Deterministic pre-check: if the heap is already past the limit the
		// experiment fails before doing any work, regardless of monitor
		// timing.
		if err := checkHeap(maxHeap); err != nil {
			return RunStats{ID: id, Err: err}
		}
		runCtx, stopGuard = heapGuard(ctx, maxHeap)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var res *Result
	err := panicsafe.Do(func() error {
		var rerr error
		res, rerr = RunCtx(runCtx, id, p)
		return rerr
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if stopGuard != nil {
		stopGuard()
	}
	// The guard cancels via context; translate the generic cancellation the
	// experiment observed back into the heap-limit sentinel.
	if err != nil && context.Cause(runCtx) != nil && errors.Is(context.Cause(runCtx), ErrHeapLimit) {
		err = context.Cause(runCtx)
		res = nil
	}
	return RunStats{
		ID:         id,
		Result:     res,
		Wall:       wall,
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		Err:        err,
	}
}

// checkHeap returns ErrHeapLimit when the heap exceeds maxHeap bytes.
// HeapAlloc also counts garbage not yet swept, such as a finished
// experiment's, so a reading over the limit is taken again after one forced
// collection before it counts.
func checkHeap(maxHeap uint64) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= maxHeap {
		return nil
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= maxHeap {
		return nil
	}
	return fmt.Errorf("%w (heap %d > limit %d bytes)", ErrHeapLimit, ms.HeapAlloc, maxHeap)
}

// heapGuard derives a context that is cancelled with ErrHeapLimit once the
// process HeapAlloc exceeds maxHeap, sampling every 100ms. stop releases the
// monitor goroutine.
func heapGuard(ctx context.Context, maxHeap uint64) (guarded context.Context, stop func()) {
	gctx, cancel := context.WithCancelCause(ctx)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-gctx.Done():
				return
			case <-ticker.C:
				if err := checkHeap(maxHeap); err != nil {
					cancel(err)
					return
				}
			}
		}
	}()
	return gctx, func() {
		once.Do(func() {
			close(done)
			cancel(nil)
		})
	}
}
