package mcast

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtreescale/internal/chaos"
	"mtreescale/internal/graph"
	"mtreescale/internal/panicsafe"
	"mtreescale/internal/topology"
)

func TestMeasureCurveCtxPreCancelled(t *testing.T) {
	g, err := topology.GenerateSeeded("ts1000", 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Protocol{NSource: 4, NRcvr: 4, Seed: 7}
	if _, err := MeasureCurveCtx(ctx, g, []int{1, 4}, Distinct, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("independent engine: err = %v, want context.Canceled", err)
	}
	if _, err := MeasureSharedCurveCtx(ctx, g, []int{1, 4}, CoreRandom, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("shared engine: err = %v, want context.Canceled", err)
	}
	_, err = MeasureEnsembleCtx(ctx, func(seed int64) (*graph.Graph, error) {
		return topology.GenerateSeeded("r100", seed, 0.2)
	}, 2, []int{1, 4}, Distinct, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ensemble engine: err = %v, want context.Canceled", err)
	}
}

// TestMeasureCurveCtxCancelMidRun sizes the sweep far beyond the cancel
// delay: the engine must return (with context.Canceled) long before the
// full sweep could complete, proving the workers poll ctx at grid-point
// granularity instead of only between sources.
func TestMeasureCurveCtxCancelMidRun(t *testing.T) {
	g, err := topology.GenerateSeeded("ts1000", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One source, many sizes × repetitions (an uninterrupted sweep takes
	// seconds): cancellation can only be observed inside the source's own
	// grid loop.
	p := Protocol{NSource: 1, NRcvr: 20000, Seed: 7, Workers: 1}
	sizes := LogSpacedSizes(g.N()-1, 24)
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = MeasureCurveCtx(ctx, g, sizes, Distinct, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want context.Canceled (sweep too fast to prove cancellation?)", err, elapsed)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation not observed promptly: took %v", elapsed)
	}
}

func TestMeasureEnsembleCtxRecoversGeneratorPanic(t *testing.T) {
	p := Protocol{NSource: 2, NRcvr: 2, Seed: 3, Workers: 2}
	_, err := MeasureEnsembleCtx(context.Background(), func(seed int64) (*graph.Graph, error) {
		panic("generator exploded")
	}, 3, []int{1, 2}, Distinct, p)
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *panicsafe.PanicError, got %T: %v", err, err)
	}
}

// TestChaosWorkerPanicRecovered: a panic rule at failpoint "mcast.worker"
// must surface from the engine as a *panicsafe.PanicError, like any other
// panicking source job, and the pool must drain: every worker exits, and
// the next sweep (the rule fires once) matches a run without chaos.
func TestChaosWorkerPanicRecovered(t *testing.T) {
	g, err := topology.GenerateSeeded("ts1000", 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 4, 16}
	p := Protocol{NSource: 8, NRcvr: 4, Seed: 7, Workers: 4}
	want, err := MeasureCurveCtx(context.Background(), g, sizes, Distinct, p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Parse("mcast.worker=panic#1", 7)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	chaos.Enable(plan)
	defer chaos.Disable()

	_, err = MeasureCurveCtx(context.Background(), g, sizes, Distinct, p)
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *panicsafe.PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "injected panic at mcast.worker") {
		t.Fatalf("error lacks the injected panic: %v", err)
	}
	if n := len(plan.Events()); n != 1 {
		t.Fatalf("failpoint fired %d times, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the failed sweep, %d before", n, baseline)
	}
	got, err := MeasureCurveCtx(context.Background(), g, sizes, Distinct, p)
	if err != nil {
		t.Fatalf("sweep after the spent rule: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep after the spent rule differs from a clean run:\n got %+v\nwant %+v", got, want)
	}
}
