package mcast

import (
	"fmt"
	"sync"
	"testing"

	"mtreescale/internal/graph"
)

// Protocol.BatchBFS must be a pure performance lever: the MS-BFS kernel
// produces trees node-for-node identical to per-source BFS, so every engine's
// output with the batch path on must be byte-identical to the serial run —
// at any worker count, with or without the SPT cache.

// batchVariants returns the protocol matrix one engine run is checked over:
// BatchBFS off/on × Workers 1/3. Element 0 is the reference (serial,
// sequential); all others must match it exactly.
func batchVariants(base Protocol) []Protocol {
	var out []Protocol
	for _, batch := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			p := base
			p.BatchBFS = batch
			p.Workers = workers
			out = append(out, p)
		}
	}
	return out
}

func TestMeasureCurveBatchByteIdentical(t *testing.T) {
	g := randGraph(41, 400, 800)
	sizes := []int{1, 3, 10, 40}
	for _, sptcache := range []bool{false, true} {
		for _, mode := range []Mode{Distinct, WithReplacement} {
			var want []Point
			for _, p := range batchVariants(Protocol{NSource: 12, NRcvr: 8, Seed: 99, SPTCache: sptcache}) {
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
						t.Fatalf("cache=%v mode=%v %+v: batch %+v != serial %+v",
							sptcache, mode, p, got[k], want[k])
					}
				}
			}
		}
	}
}

func TestMeasureSharedCurveBatchByteIdentical(t *testing.T) {
	g := randGraph(47, 350, 700)
	sizes := []int{1, 4, 16}
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
					t.Fatalf("%v %+v: batch %+v != serial %+v", strategy, p, got[k], want[k])
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
				t.Fatalf("%+v: batch %+v != serial %+v", p, got[k], want[k])
			}
		}
	}
}

// TestMeasureCurveBatchWideSourceCount spans more than one 64-lane MS-BFS
// group, exercising the kernel's group spill inside a real engine run.
func TestMeasureCurveBatchWideSourceCount(t *testing.T) {
	g := randGraph(53, 200, 400)
	sizes := []int{2, 9}
	base := Protocol{NSource: 70, NRcvr: 2, Seed: 3}
	want, err := MeasureCurve(g, sizes, Distinct, base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.BatchBFS = true
	got, err := MeasureCurve(g, sizes, Distinct, batched)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("size %d: batch %+v != serial %+v", sizes[k], got[k], want[k])
		}
	}
}

// TestSPTCacheChurnBatchedAndSerial hammers the process-wide SPT cache from
// batched and serial engines concurrently under a tight byte budget, so
// FillBatch inserts, singleflight Gets and evictions interleave. Every run's
// result must still equal the quiet-cache reference.
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
		p.BatchBFS = i%2 == 0
		p.Workers = 1 + i%3
		wg.Add(1)
		go func(p Protocol) {
			defer wg.Done()
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
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type churnMismatch struct {
	p         Protocol
	got, want Point
}

func (m *churnMismatch) Error() string {
	return fmt.Sprintf("churn mismatch under %+v: got %+v, want %+v", m.p, m.got, m.want)
}
