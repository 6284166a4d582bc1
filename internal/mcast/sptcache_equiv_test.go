package mcast

import (
	"testing"

	"mtreescale/internal/graph"
)

// The SPT cache must be a pure performance lever: every engine's output with
// SPTCache on must be byte-identical to the uncached run, because cached
// trees come from the same BFS kernel the uncached path uses.

func curveProtocols(seed int64) (off, on Protocol) {
	off = Protocol{NSource: 12, NRcvr: 8, Seed: seed}
	on = off
	on.SPTCache = true
	return off, on
}

func TestMeasureCurveCachedByteIdentical(t *testing.T) {
	graph.SharedSPTs.Clear()
	g := randGraph(11, 400, 800)
	sizes := []int{1, 3, 10, 40}
	off, on := curveProtocols(99)
	for _, mode := range []Mode{Distinct, WithReplacement} {
		want, err := MeasureCurve(g, sizes, mode, off)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasureCurve(g, sizes, mode, on)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("mode %v size %d: cached %+v != uncached %+v",
					mode, sizes[k], got[k], want[k])
			}
		}
	}
	if st := graph.SharedSPTs.Stats(); st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache saw no traffic: %+v", st)
	}
}

func TestMeasureSharedCurveCachedByteIdentical(t *testing.T) {
	graph.SharedSPTs.Clear()
	g := randGraph(17, 350, 700)
	sizes := []int{1, 4, 16}
	off, on := curveProtocols(23)
	for _, strategy := range []CoreStrategy{CoreRandom, CoreSource, CoreCenter} {
		want, err := MeasureSharedCurve(g, sizes, strategy, off)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasureSharedCurve(g, sizes, strategy, on)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%v size %d: cached %+v != uncached %+v",
					strategy, sizes[k], got[k], want[k])
			}
		}
	}
}

func TestMeasureIncrementsCachedByteIdentical(t *testing.T) {
	graph.SharedSPTs.Clear()
	g := randGraph(19, 250, 500)
	off, on := curveProtocols(31)
	want, err := MeasureIncrements(g, 25, off)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureIncrements(g, 25, on)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != want.Samples || len(got.Delta) != len(want.Delta) {
		t.Fatalf("shape mismatch: %d/%d samples", got.Samples, want.Samples)
	}
	for j := range want.Delta {
		if got.Delta[j] != want.Delta[j] {
			t.Fatalf("Delta[%d]: cached %g != uncached %g", j, got.Delta[j], want.Delta[j])
		}
	}
}

// TestMeasureSharedCurveDeterministicAcrossWorkers pins the parallel
// shared-curve engine's contract: byte-identical output for any worker count.
func TestMeasureSharedCurveDeterministicAcrossWorkers(t *testing.T) {
	g := randGraph(29, 300, 600)
	sizes := []int{1, 5, 25}
	base := Protocol{NSource: 16, NRcvr: 6, Seed: 5}
	var want []SharedPoint
	for _, workers := range []int{1, 2, 4, 7} {
		p := base
		p.Workers = workers
		got, err := MeasureSharedCurve(g, sizes, CoreRandom, p)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d size %d: %+v != %+v", workers, sizes[k], got[k], want[k])
			}
		}
	}
}
