package mcast

import (
	"fmt"
	"sync"
	"testing"

	"mtreescale/internal/graph"
)

// A sweep builds its sources' trees in one batch (graph.SweepSPTs): read
// from the SPT cache, or computed into one MS-BFS slab. Both give the
// canonical trees, so every engine's output must be byte-identical with
// the cache on or off, at any worker count.

// batchVariants returns the protocol matrix one engine run is checked over:
// SPTCache off/on × Workers 1/3. Element 0 is the reference (uncached,
// sequential); all others must match it exactly.
func batchVariants(base Protocol) []Protocol {
	var out []Protocol
	for _, cache := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			p := base
			p.SPTCache = cache
			p.Workers = workers
			out = append(out, p)
		}
	}
	return out
}

func TestMeasureCurveBatchByteIdentical(t *testing.T) {
	g := randGraph(41, 400, 800)
	sizes := []int{1, 3, 10, 40}
	defer graph.SharedSPTs.Clear()
	for _, mode := range []Mode{Distinct, WithReplacement} {
		var want []Point
		for _, p := range batchVariants(Protocol{NSource: 12, NRcvr: 8, Seed: 99}) {
			graph.SharedSPTs.Clear()
			got, err := MeasureCurve(g, sizes, mode, p)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("mode=%v %+v: %+v != uncached sequential %+v", mode, p, got[k], want[k])
				}
			}
		}
	}
}

func TestMeasureSharedCurveBatchByteIdentical(t *testing.T) {
	g := randGraph(47, 350, 700)
	sizes := []int{1, 4, 16}
	defer graph.SharedSPTs.Clear()
	for _, strategy := range []CoreStrategy{CoreRandom, CoreSource, CoreCenter} {
		var want []SharedPoint
		for _, p := range batchVariants(Protocol{NSource: 9, NRcvr: 5, Seed: 23}) {
			got, err := MeasureSharedCurve(g, sizes, strategy, p)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%v %+v: %+v != uncached sequential %+v", strategy, p, got[k], want[k])
				}
			}
		}
	}
}

func TestMeasureEnsembleBatchByteIdentical(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) {
		return randGraph(seed, 150, 250), nil
	}
	sizes := []int{1, 5, 25}
	defer graph.SharedSPTs.Clear()
	var want []Point
	for _, p := range batchVariants(Protocol{NSource: 7, NRcvr: 4, Seed: 13}) {
		got, err := MeasureEnsemble(gen, 3, sizes, Distinct, p)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%+v: %+v != uncached sequential %+v", p, got[k], want[k])
			}
		}
	}
}

// TestMeasureCurveBatchWideSourceCount spans more than one 64-lane MS-BFS
// group, exercising the kernel's group spill inside a real engine run: in
// the uncached slab and in the cache's batch of misses.
func TestMeasureCurveBatchWideSourceCount(t *testing.T) {
	g := randGraph(53, 200, 400)
	sizes := []int{2, 9}
	base := Protocol{NSource: 70, NRcvr: 2, Seed: 3}
	want, err := MeasureCurve(g, sizes, Distinct, base)
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.SPTCache = true
	graph.SharedSPTs.Clear()
	defer graph.SharedSPTs.Clear()
	got, err := MeasureCurve(g, sizes, Distinct, cached)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("size %d: cached %+v != uncached %+v", sizes[k], got[k], want[k])
		}
	}
}

// TestSPTCacheChurnBatchedAndSerial hammers the process-wide SPT cache from
// engine sweeps, which read their trees in one batch, and from serial
// per-source Gets of the same trees, concurrently under a tight byte
// budget, so batch inserts, singleflight Gets and evictions interleave.
// Every engine run must still equal the quiet-cache reference, and every
// Get must return the tree BFS builds.
func TestSPTCacheChurnBatchedAndSerial(t *testing.T) {
	g := randGraph(59, 300, 600)
	sizes := []int{1, 6, 24}
	base := Protocol{NSource: 10, NRcvr: 4, Seed: 77, SPTCache: true}
	graph.SharedSPTs.Clear()
	want, err := MeasureCurve(g, sizes, Distinct, base)
	if err != nil {
		t.Fatal(err)
	}
	graph.SharedSPTs.Clear()
	prev := graph.SharedSPTs.SetLimit(64 << 10) // force churn
	defer func() {
		graph.SharedSPTs.SetLimit(prev)
		graph.SharedSPTs.Clear()
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		p := base
		p.Workers = 1 + i%3
		wg.Add(1)
		go func(p Protocol, serial bool) {
			defer wg.Done()
			if serial {
				errs <- getEach(g, drawSources(g, p))
				return
			}
			got, err := MeasureCurve(g, sizes, Distinct, p)
			if err != nil {
				errs <- err
				return
			}
			for k := range want {
				if got[k] != want[k] {
					errs <- &churnMismatch{p: p, got: got[k], want: want[k]}
					return
				}
			}
		}(p, i%2 == 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// getEach reads every source's tree from the process-wide cache, last
// source first, and checks each against BFS.
func getEach(g *graph.Graph, sources []int) error {
	for i := len(sources) - 1; i >= 0; i-- {
		got, err := graph.SharedSPTs.Get(g, sources[i])
		if err != nil {
			return err
		}
		want, err := g.BFS(sources[i])
		if err != nil {
			return err
		}
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] {
				return fmt.Errorf("cached tree of %d differs from BFS at node %d", sources[i], v)
			}
		}
	}
	return nil
}

type churnMismatch struct {
	p         Protocol
	got, want Point
}

func (m *churnMismatch) Error() string {
	return fmt.Sprintf("churn mismatch under %+v: got %+v, want %+v", m.p, m.got, m.want)
}
