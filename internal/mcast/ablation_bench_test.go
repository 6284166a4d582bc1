package mcast

// Ablation benchmarks for the design choices in DESIGN.md §5:
//
//  2. SPT reuse across receiver sets vs a BFS per receiver set.
//  3. Floyd's distinct sampling vs rejection resampling.
//  4. Parent-pointer climb tree counting vs explicit edge-set union.

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	r := rng.New(1)
	gb := graph.NewBuilder(2000)
	for v := 1; v < 2000; v++ {
		_ = gb.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < 2500; i++ {
		_ = gb.AddEdge(r.Intn(2000), r.Intn(2000))
	}
	return gb.Build()
}

func benchReceivers(b *testing.B, g *graph.Graph, m int) []int32 {
	b.Helper()
	smp, err := NewSampler(g.N(), 0, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	recv, err := smp.Distinct(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	return recv
}

// BenchmarkAblationTreeSizeClimb measures the production O(L) parent climb.
func BenchmarkAblationTreeSizeClimb(b *testing.B) {
	g := benchGraph(b)
	spt, _ := g.BFS(0)
	recv := benchReceivers(b, g, 200)
	c := NewTreeCounter(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.TreeSize(spt, recv) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkAblationTreeSizeEdgeSet measures the map-based reference union.
func BenchmarkAblationTreeSizeEdgeSet(b *testing.B) {
	g := benchGraph(b)
	spt, _ := g.BFS(0)
	recv := benchReceivers(b, g, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if TreeSizeSlow(spt, recv) == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkAblationDistinctFloyd: production hybrid Floyd/Fisher-Yates.
func BenchmarkAblationDistinctFloyd(b *testing.B) {
	smp, err := NewSampler(2000, -1, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = smp.Distinct(1500, buf) // high m/M: rejection's worst case
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDistinctRejection: the rejection-resampling reference.
func BenchmarkAblationDistinctRejection(b *testing.B) {
	smp, err := NewSampler(2000, -1, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = smp.DistinctRejection(1500, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDistinctSmallM exercises Floyd's path (m ≪ M), where the
// per-draw map[int32]bool the sampler used to allocate dominated the cost;
// the epoch-stamped scratch set makes the draw allocation-free (compare
// allocs/op against BenchmarkAblationDistinctSmallMRejection).
func BenchmarkAblationDistinctSmallM(b *testing.B) {
	smp, err := NewSampler(2000, -1, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = smp.Distinct(50, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDistinctSmallMRejection: the rejection reference at the
// same small m, also on the epoch-stamped scratch set.
func BenchmarkAblationDistinctSmallMRejection(b *testing.B) {
	smp, err := NewSampler(2000, -1, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = smp.DistinctRejection(50, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSPTReuse: one BFS per source shared across receiver sets
// (production path inside MeasureCurve).
func BenchmarkAblationSPTReuse(b *testing.B) {
	g := benchGraph(b)
	var spt graph.SPT
	c := NewTreeCounter(g.N())
	smp, _ := NewSampler(g.N(), 0, rng.New(4))
	var recv []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.BFSInto(0, &spt); err != nil {
			b.Fatal(err)
		}
		for rep := 0; rep < 50; rep++ {
			recv, _ = smp.Distinct(100, recv)
			c.TreeSize(&spt, recv)
		}
	}
}

// BenchmarkAblationSPTNoReuse: a fresh BFS per receiver set.
func BenchmarkAblationSPTNoReuse(b *testing.B) {
	g := benchGraph(b)
	var spt graph.SPT
	c := NewTreeCounter(g.N())
	smp, _ := NewSampler(g.N(), 0, rng.New(4))
	var recv []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < 50; rep++ {
			if err := g.BFSInto(0, &spt); err != nil {
				b.Fatal(err)
			}
			recv, _ = smp.Distinct(100, recv)
			c.TreeSize(&spt, recv)
		}
	}
}
