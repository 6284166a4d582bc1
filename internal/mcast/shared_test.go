package mcast

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

func TestSharedTreeSizeSourceCoreEqualsSourceTree(t *testing.T) {
	// With the core at the source, the shared tree is the source tree.
	g := randGraph(3, 200, 300)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	recv := []int32{5, 17, 42, 99}
	src := c.TreeSize(spt, recv)
	shared := c.SharedTreeSize(spt, 0, recv)
	if src != shared {
		t.Fatalf("source-core shared tree %d != source tree %d", shared, src)
	}
}

func TestSharedTreeIncludesSourcePath(t *testing.T) {
	// Path 0-1-2-3-4 with core at 4 and source at 0: a single receiver at 3
	// yields a tree containing core→3 (1 link) plus core→0 (4 links), all
	// shared: union = 4 links.
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		_ = b.AddEdge(i, i+1)
	}
	g := b.Build()
	coreSPT, _ := g.BFS(4)
	c := NewTreeCounter(g.N())
	if got := c.SharedTreeSize(coreSPT, 0, []int32{3}); got != 4 {
		t.Fatalf("shared tree = %d, want 4", got)
	}
	// Receiver on the other side of the core from the source.
	b2 := graph.NewBuilder(5)
	_ = b2.AddEdge(0, 1) // source side
	_ = b2.AddEdge(1, 2) // core at 2
	_ = b2.AddEdge(2, 3)
	_ = b2.AddEdge(3, 4) // receiver side
	g2 := b2.Build()
	coreSPT2, _ := g2.BFS(2)
	if got := c.SharedTreeSize(coreSPT2, 0, []int32{4}); got != 4 {
		t.Fatalf("two-sided shared tree = %d, want 4", got)
	}
}

func TestSharedTreeAtLeastSourceToCore(t *testing.T) {
	g := randGraph(5, 150, 220)
	coreSPT, _ := g.BFS(7)
	c := NewTreeCounter(g.N())
	for src := int32(0); src < 20; src++ {
		got := c.SharedTreeSize(coreSPT, src, nil)
		if got != int(coreSPT.Dist[src]) {
			t.Fatalf("empty group shared tree %d != dist(core, src) %d", got, coreSPT.Dist[src])
		}
	}
}

func TestSharedTreeIgnoresGarbage(t *testing.T) {
	g := randGraph(8, 50, 60)
	coreSPT, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	if got := c.SharedTreeSize(coreSPT, -1, []int32{999, -5}); got != 0 {
		t.Fatalf("garbage inputs gave %d links", got)
	}
}

func TestMeasureSharedCurveSourceStrategyOverheadOne(t *testing.T) {
	g, err := topology.TransitStubSized(200, 3.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := MeasureSharedCurve(g, []int{1, 5, 20}, CoreSource, Protocol{NSource: 5, NRcvr: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.MeanOverhead < 1-1e-9 || pt.MeanOverhead > 1+1e-9 {
			t.Fatalf("source-core overhead = %v at m=%d, want exactly 1", pt.MeanOverhead, pt.Size)
		}
	}
}

func TestMeasureSharedCurveOverheadBounded(t *testing.T) {
	// Wei-Estrin: center-based trees cost within a modest constant of
	// source trees; random cores are worse but still bounded. Overhead must
	// be ≥ 1 on average and < 3 for these sizes.
	g, err := topology.TransitStubSized(300, 3.6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []CoreStrategy{CoreRandom, CoreCenter} {
		pts, err := MeasureSharedCurve(g, []int{2, 10, 50}, strat, Protocol{NSource: 10, NRcvr: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			if pt.MeanOverhead < 1.0-0.05 {
				t.Fatalf("%v: overhead %v < 1 at m=%d", strat, pt.MeanOverhead, pt.Size)
			}
			if pt.MeanOverhead > 3 {
				t.Fatalf("%v: overhead %v implausibly high at m=%d", strat, pt.MeanOverhead, pt.Size)
			}
			if pt.Samples == 0 {
				t.Fatalf("%v: no samples", strat)
			}
		}
	}
}

func TestMeasureSharedCurveCenterBeatsRandomAtScale(t *testing.T) {
	// A managed (center) core should not be worse than a random core on
	// average for moderate groups.
	g, err := topology.TiersSized(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := Protocol{NSource: 15, NRcvr: 15, Seed: 5}
	rand, err := MeasureSharedCurve(g, []int{10}, CoreRandom, p)
	if err != nil {
		t.Fatal(err)
	}
	center, err := MeasureSharedCurve(g, []int{10}, CoreCenter, p)
	if err != nil {
		t.Fatal(err)
	}
	if center[0].MeanSharedTree > rand[0].MeanSharedTree*1.05 {
		t.Fatalf("center core (%.1f) worse than random core (%.1f)",
			center[0].MeanSharedTree, rand[0].MeanSharedTree)
	}
}

func TestMeasureSharedCurveErrors(t *testing.T) {
	g := randGraph(9, 50, 60)
	if _, err := MeasureSharedCurve(g, []int{1}, CoreRandom, Protocol{}); err == nil {
		t.Fatal("bad protocol must error")
	}
	if _, err := MeasureSharedCurve(g, []int{0}, CoreRandom, Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("size 0 must error")
	}
	if _, err := MeasureSharedCurve(g, []int{50}, CoreRandom, Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("m = N must error")
	}
	tiny := graph.NewBuilder(1).Build()
	if _, err := MeasureSharedCurve(tiny, []int{1}, CoreRandom, Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("N=1 must error")
	}
}

func TestCoreStrategyString(t *testing.T) {
	if CoreRandom.String() != "random-core" || CoreSource.String() != "source-core" ||
		CoreCenter.String() != "center-core" {
		t.Fatal("strategy strings")
	}
	if CoreStrategy(9).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}

func TestApproxCenterOnPath(t *testing.T) {
	g := pathGraph(t, 21)
	c, err := approxCenter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The center of a path is the middle; the sampling heuristic should
	// land within a quarter of the path of it.
	if c < 5 || c > 15 {
		t.Fatalf("approx center of P21 = %d", c)
	}
}
