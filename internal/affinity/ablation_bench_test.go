package affinity

// Ablation benchmark for DESIGN.md §5 item 1: incremental O(depth)
// per-move MCMC bookkeeping vs recomputing the pairwise-distance sum and
// tree size from scratch (what a naive sampler would do after every move).

import (
	"context"
	"fmt"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
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

// BenchmarkSweep9 times one whole Figure 9 panel in perfbench's shape:
// K = 2, D = 10, Figure 9's seven βs over a 16-point grid to n = 10000,
// 40 burn-in and 80 sample sweeps per chain. Its chains run on GOMAXPROCS
// workers, so compare -cpu 1,2.
func BenchmarkSweep9(b *testing.B) {
	m, err := NewTreeModel(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	ns := mcast.LogSpacedSizes(10000, 16)
	p := Params{BurnInSweeps: 40, SampleSweeps: 80, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Sweep9(context.Background(), m, fig9Betas, ns, p); err != nil {
			b.Fatal(err)
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
