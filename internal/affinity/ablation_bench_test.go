package affinity

// Ablation benchmark for DESIGN.md §5 item 1: incremental O(depth)
// per-move MCMC bookkeeping vs recomputing the pairwise-distance sum and
// tree size from scratch (what a naive sampler would do after every move).

import (
	"fmt"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// BenchmarkAblationMCMCIncremental measures the production move path.
func BenchmarkAblationMCMCIncremental(b *testing.B) {
	m, err := NewTreeModel(2, 12)
	if err != nil {
		b.Fatal(err)
	}
	c, err := m.NewChain(500, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkChainStep times one Metropolis move on Figure 9's binary trees
// at its smallest and largest group sizes, uniform (β = 0) and strongly
// clustered (β = 10). Each chain runs 20 sweeps before the clock starts.
func BenchmarkChainStep(b *testing.B) {
	for _, depth := range []int{8, 10, 12} {
		m, err := NewTreeModel(2, depth)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{40, 10000} {
			for _, beta := range []float64{0, 10} {
				b.Run(fmt.Sprintf("D=%d/n=%d/beta=%g", depth, n, beta), func(b *testing.B) {
					c, err := m.NewChain(n, beta, rng.New(1))
					if err != nil {
						b.Fatal(err)
					}
					for s := 0; s < 20; s++ {
						c.Sweep()
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Step()
					}
				})
			}
		}
	}
}

// BenchmarkAblationMCMCRecompute measures a from-scratch recomputation of
// the same bookkeeping (the per-move cost a non-incremental sampler pays).
func BenchmarkAblationMCMCRecompute(b *testing.B) {
	m, err := NewTreeModel(2, 12)
	if err != nil {
		b.Fatal(err)
	}
	c, err := m.NewChain(500, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
		if err := c.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphChainStep measures the general-graph O(n) move.
func BenchmarkGraphChainStep(b *testing.B) {
	g := smallBenchGraph(b)
	c, err := NewGraphChain(g, 0, 200, 1, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func smallBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	r := rng.New(9)
	gb := graph.NewBuilder(800)
	for v := 1; v < 800; v++ {
		_ = gb.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < 1200; i++ {
		_ = gb.AddEdge(r.Intn(800), r.Intn(800))
	}
	return gb.Build()
}
