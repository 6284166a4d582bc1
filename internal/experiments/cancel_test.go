package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

// cancelledOnceSPTs is a context whose Err reports context.Canceled once the
// shared SPT cache has computed a tree, that is once a reachability
// measurement has filled its sources' trees, and counts the polls that
// reported it.
type cancelledOnceSPTs struct {
	context.Context
	cancelled atomic.Bool
	polls     atomic.Int32
}

func (c *cancelledOnceSPTs) Err() error {
	if c.cancelled.Load() || graph.SharedSPTs.Stats().Misses > 0 {
		c.cancelled.Store(true)
		c.polls.Add(1)
		return context.Canceled
	}
	return nil
}

// coldRun runs an experiment from empty topology and SPT caches and returns
// its error and the misses of both caches: how far the run got.
func coldRun(ctx context.Context, t *testing.T, run func(context.Context, Profile) (*Result, error)) (topoMisses, sptMisses uint64, err error) {
	t.Helper()
	topology.ResetCache()
	graph.SharedSPTs.Clear()
	t.Cleanup(func() {
		topology.ResetCache()
		graph.SharedSPTs.Clear()
	})
	res, err := run(ctx, Quick())
	if res != nil {
		t.Fatalf("cancelled run returned a result")
	}
	return topology.CacheInfo().Misses, graph.SharedSPTs.Stats().Misses, err
}

// TestTable1HonoursCancellation cancels table1 at its second poll, which
// falls inside the first topology's metrics, and then inside its
// reachability measurement. Either way the run must stop at that poll,
// having built one topology and, in the first case, no tree.
func TestTable1HonoursCancellation(t *testing.T) {
	ctx := &errFromSecondCall{Context: context.Background()}
	topo, spts, err := coldRun(ctx, t, runTable1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != 2 || topo != 1 || spts != 0 {
		t.Fatalf("stopped after %d polls, %d topology builds and %d trees; want 2 polls, 1 build, no tree: the metrics must poll", n, topo, spts)
	}

	reachCtx := &cancelledOnceSPTs{Context: context.Background()}
	topo, spts, err = coldRun(reachCtx, t, runTable1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled inside reachability: err = %v, want context.Canceled", err)
	}
	if n := reachCtx.polls.Load(); n != 1 || topo != 1 || spts == 0 {
		t.Fatalf("cancelled inside reachability: %d polls saw it, %d topology builds, %d trees; want the first poll to end the run, on the first topology", n, topo, spts)
	}
}

// TestFig6bHonoursCancellation cancels fig6b at its second poll, which
// falls between its topology builds, and then inside its first
// reachability measurement. Either way the run must stop at that poll: in
// the first case after one build and no tree.
func TestFig6bHonoursCancellation(t *testing.T) {
	fig6b := func(ctx context.Context, p Profile) (*Result, error) {
		return runFig6(ctx, "fig6b", topology.RealNames(), p)
	}
	ctx := &errFromSecondCall{Context: context.Background()}
	topo, spts, err := coldRun(ctx, t, fig6b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != 2 || topo != 1 || spts != 0 {
		t.Fatalf("stopped after %d polls, %d topology builds and %d trees; want 2 polls, 1 build, no tree: the builds must poll", n, topo, spts)
	}

	reachCtx := &cancelledOnceSPTs{Context: context.Background()}
	topo, spts, err = coldRun(reachCtx, t, fig6b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled inside reachability: err = %v, want context.Canceled", err)
	}
	if n := reachCtx.polls.Load(); n != 1 || topo != uint64(len(topology.RealNames())) || spts == 0 {
		t.Fatalf("cancelled inside reachability: %d polls saw it, %d topology builds, %d trees; want the first poll to end the run", n, topo, spts)
	}
}
