package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtreescale/internal/panicsafe"
	"mtreescale/internal/serve"
)

// registerTemp installs a throwaway runner for one test and removes it on
// cleanup so the registry-wide invariant tests stay unaffected.
func registerTemp(t *testing.T, r *Runner) {
	t.Helper()
	if r.Title == "" {
		r.Title = "test runner " + r.ID
	}
	if r.Description == "" {
		r.Description = "temporary test runner"
	}
	if err := Register(r); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { delete(registry, r.ID) })
}

func okRunner(id string, delay time.Duration) *Runner {
	return &Runner{
		ID: id,
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return &Result{ID: id, Title: id}, nil
		},
	}
}

func failRunner(id string, err error) *Runner {
	return &Runner{
		ID:  id,
		Run: func(ctx context.Context, p Profile) (*Result, error) { return nil, err },
	}
}

func TestRegisterRejectsBadRunners(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Error("nil runner must be rejected")
	}
	if err := Register(&Runner{ID: "", Run: okRunner("x", 0).Run}); err == nil {
		t.Error("empty id must be rejected")
	}
	if err := Register(&Runner{ID: "zz-no-run"}); err == nil {
		t.Error("nil Run must be rejected")
	}
	// Duplicate of an already-registered paper experiment.
	err := Register(&Runner{ID: "table1", Title: "dup", Description: "dup", Run: okRunner("table1", 0).Run})
	if err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	if !strings.Contains(err.Error(), "duplicate id") || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("duplicate error %q should name the id", err)
	}
	// The rejected duplicate must not clobber the original.
	r, lookupErr := Lookup("table1")
	if lookupErr != nil || r.Title == "dup" {
		t.Fatal("failed Register clobbered the existing runner")
	}
}

// The satellite requirement: with parallel > 1 and several failures, RunMany
// returns the first failure in *input* order, and every non-failing
// experiment's stats are populated.
func TestRunManyFirstFailureInInputOrder(t *testing.T) {
	errEarly := errors.New("early boom")
	errLate := errors.New("late boom")
	registerTemp(t, okRunner("zz-ok-1", 5*time.Millisecond))
	registerTemp(t, failRunner("zz-fail-early", errEarly))
	registerTemp(t, okRunner("zz-ok-2", 0))
	registerTemp(t, failRunner("zz-fail-late", errLate))
	registerTemp(t, okRunner("zz-ok-3", 2*time.Millisecond))

	ids := []string{"zz-ok-1", "zz-fail-early", "zz-ok-2", "zz-fail-late", "zz-ok-3"}
	for _, parallel := range []int{2, 4} {
		stats, err := RunMany(ids, Quick(), parallel)
		if err == nil {
			t.Fatalf("parallel=%d: schedule with failures must error", parallel)
		}
		if !errors.Is(err, errEarly) {
			t.Fatalf("parallel=%d: error %v, want the first failure in input order (zz-fail-early)", parallel, err)
		}
		if errors.Is(err, errLate) {
			t.Fatalf("parallel=%d: error %v wraps the later failure", parallel, err)
		}
		if len(stats) != len(ids) {
			t.Fatalf("parallel=%d: stats length %d, want %d", parallel, len(stats), len(ids))
		}
		for i, id := range ids {
			if stats[i].ID != id {
				t.Fatalf("parallel=%d: stats[%d].ID = %s, want %s", parallel, i, stats[i].ID, id)
			}
			if strings.HasPrefix(id, "zz-ok") {
				if stats[i].Err != nil || stats[i].Result == nil {
					t.Fatalf("parallel=%d: healthy %s has err=%v result=%v", parallel, id, stats[i].Err, stats[i].Result)
				}
			} else if stats[i].Err == nil {
				t.Fatalf("parallel=%d: failing %s recorded no error", parallel, id)
			}
		}
	}
}

// A panicking experiment must surface as RunStats.Err carrying the recovered
// value and stack while sibling experiments complete. Run at parallel >= 4
// so the race detector sees the isolation under real concurrency.
func TestRunManyIsolatesPanic(t *testing.T) {
	registerTemp(t, &Runner{
		ID: "zz-panics",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			panic("deliberate test panic")
		},
	})
	siblings := make([]string, 6)
	for i := range siblings {
		siblings[i] = fmt.Sprintf("zz-sib-%d", i)
		registerTemp(t, okRunner(siblings[i], time.Duration(i)*time.Millisecond))
	}
	ids := append([]string{siblings[0], siblings[1], "zz-panics"}, siblings[2:]...)

	stats, err := RunMany(ids, Quick(), 4)
	if err == nil {
		t.Fatal("panicking experiment must fail the schedule")
	}
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("schedule error %v does not wrap *panicsafe.PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "deliberate test panic" {
		t.Fatalf("recovered value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "zz-panics") && !strings.Contains(string(pe.Stack), "TestRunManyIsolatesPanic") {
		t.Fatalf("panic stack does not reference the panicking runner:\n%s", pe.Stack)
	}
	for i, id := range ids {
		if id == "zz-panics" {
			if stats[i].Err == nil || !errors.As(stats[i].Err, &pe) {
				t.Fatalf("panicking stats entry err = %v", stats[i].Err)
			}
			continue
		}
		if stats[i].Err != nil || stats[i].Result == nil {
			t.Fatalf("sibling %s did not complete: err=%v", id, stats[i].Err)
		}
	}
}

func TestRunManyCtxPreCancelled(t *testing.T) {
	registerTemp(t, &Runner{
		ID: "zz-never-runs",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			t.Error("runner executed under a cancelled context")
			return nil, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := RunManyCtx(ctx, []string{"zz-never-runs"}, Quick(), ScheduleOptions{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(stats) != 1 || !errors.Is(stats[0].Err, context.Canceled) {
		t.Fatalf("stats = %+v, want one cancelled entry", stats)
	}
}

// Cancelling mid-schedule keeps finished stats and marks the rest with
// ctx.Err() — the partial-stats contract mtsim's checkpointing relies on.
func TestRunManyCtxPartialStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	registerTemp(t, &Runner{
		ID: "zz-cancels-rest",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			cancel() // simulate SIGINT arriving while this experiment runs
			return &Result{ID: "zz-cancels-rest", Title: "done"}, nil
		},
	})
	registerTemp(t, okRunner("zz-after-cancel", 0))

	stats, err := RunManyCtx(ctx, []string{"zz-cancels-rest", "zz-after-cancel"}, Quick(), ScheduleOptions{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats[0].Err != nil || stats[0].Result == nil {
		t.Fatalf("completed experiment lost its result: %+v", stats[0])
	}
	if !errors.Is(stats[1].Err, context.Canceled) || stats[1].Result != nil {
		t.Fatalf("unstarted experiment should be marked cancelled: %+v", stats[1])
	}
}

func TestRunManyCtxHeapGuard(t *testing.T) {
	registerTemp(t, okRunner("zz-heap", 0))
	// 1 byte: the synchronous pre-check trips before the runner starts.
	stats, err := RunManyCtx(context.Background(), []string{"zz-heap"}, Quick(),
		ScheduleOptions{Parallel: 1, MaxHeapBytes: 1})
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("err = %v, want ErrHeapLimit", err)
	}
	if !errors.Is(stats[0].Err, ErrHeapLimit) || stats[0].Result != nil {
		t.Fatalf("stats = %+v, want heap-limit failure", stats[0])
	}
	// A generous limit lets the same experiment pass.
	stats, err = RunManyCtx(context.Background(), []string{"zz-heap"}, Quick(),
		ScheduleOptions{Parallel: 1, MaxHeapBytes: 64 << 30})
	if err != nil || stats[0].Err != nil {
		t.Fatalf("generous heap limit failed: %v / %v", err, stats[0].Err)
	}
}

// The heap guard monitor must catch an experiment that balloons after the
// pre-check passes, aborting it (not the process) with ErrHeapLimit.
func TestRunManyCtxHeapGuardMonitor(t *testing.T) {
	registerTemp(t, &Runner{
		ID: "zz-balloon",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			var hold [][]byte
			for {
				select {
				case <-ctx.Done():
					hold = nil
					return nil, ctx.Err()
				default:
					hold = append(hold, make([]byte, 1<<20))
				}
				if len(hold)%16 == 0 {
					time.Sleep(time.Millisecond)
				}
				if len(hold) > 4096 { // 4 GiB safety valve; guard should fire long before
					return nil, errors.New("heap guard never fired")
				}
			}
		},
	})
	registerTemp(t, okRunner("zz-balloon-sib", 0))
	stats, err := RunManyCtx(context.Background(), []string{"zz-balloon", "zz-balloon-sib"}, Quick(),
		ScheduleOptions{Parallel: 2, MaxHeapBytes: 128 << 20})
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("err = %v, want ErrHeapLimit", err)
	}
	if !errors.Is(stats[0].Err, ErrHeapLimit) {
		t.Fatalf("ballooning experiment err = %v", stats[0].Err)
	}
	if stats[1].Err != nil || stats[1].Result == nil {
		t.Fatalf("sibling of aborted experiment did not complete: %+v", stats[1])
	}
}

func TestRunManyCtxReplaySkipsExecution(t *testing.T) {
	registerTemp(t, &Runner{
		ID: "zz-replayed",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			panic("replayed experiment must not execute")
		},
	})
	registerTemp(t, okRunner("zz-fresh", 0))
	canned := &Result{ID: "zz-replayed", Title: "from checkpoint"}
	var mu sync.Mutex
	var completed []string
	stats, err := RunManyCtx(context.Background(), []string{"zz-replayed", "zz-fresh"}, Quick(), ScheduleOptions{
		Parallel: 2,
		Replay: func(id string) (*Result, bool) {
			if id == "zz-replayed" {
				return canned, true
			}
			return nil, false
		},
		OnComplete: func(s RunStats) {
			mu.Lock()
			completed = append(completed, s.ID)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats[0].Replayed || stats[0].Result != canned {
		t.Fatalf("replayed stats = %+v", stats[0])
	}
	if stats[1].Replayed || stats[1].Result == nil {
		t.Fatalf("fresh stats = %+v", stats[1])
	}
	// OnComplete fires for fresh successes only — replays are already
	// checkpointed.
	if len(completed) != 1 || completed[0] != "zz-fresh" {
		t.Fatalf("OnComplete saw %v, want [zz-fresh]", completed)
	}
}

// TestRunManyCtxIsolatesCallbackPanics: a panic in Replay, in the
// quarantine's check or in OnComplete fails that one experiment with a
// *panicsafe.PanicError, as a panicking experiment does, instead of killing
// the process; the sibling still runs and succeeds.
func TestRunManyCtxIsolatesCallbackPanics(t *testing.T) {
	ids := []string{"zz-cb-replay", "zz-cb-quarantine", "zz-cb-complete", "zz-cb-sibling"}
	for _, id := range ids {
		registerTemp(t, okRunner(id, 0))
	}
	q := serve.NewQuarantine(time.Minute, time.Hour)
	q.Report("zz-cb-quarantine", errors.New("earlier strike"))
	q.SetClock(func() time.Time { panic("quarantine clock boom") })
	stats, err := RunManyCtx(context.Background(), ids, Quick(), ScheduleOptions{
		Parallel:   2,
		Quarantine: q,
		Replay: func(id string) (*Result, bool) {
			if id == "zz-cb-replay" {
				panic("replay boom")
			}
			return nil, false
		},
		OnComplete: func(s RunStats) {
			if s.ID == "zz-cb-complete" {
				panic("on-complete boom")
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "zz-cb-replay") {
		t.Fatalf("err = %v, want the replay panic of zz-cb-replay", err)
	}
	for i, want := range []string{"replay boom", "quarantine clock boom", "on-complete boom"} {
		var pe *panicsafe.PanicError
		if !errors.As(stats[i].Err, &pe) || pe.Value != want || stats[i].Result != nil {
			t.Fatalf("%s: stats %+v, want a PanicError of %q and no result", ids[i], stats[i], want)
		}
	}
	if sib := stats[3]; sib.Err != nil || sib.Result == nil {
		t.Fatalf("sibling stats = %+v, want success", sib)
	}
}

func TestReportCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	err := ReportCtx(ctx, &sb, Quick(), time.Unix(0, 0).UTC())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
