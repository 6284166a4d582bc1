package affinity

import (
	"math"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.TransitStubSized(120, 3.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGraphChainBasics builds one chain uncached and two through the same
// SPT cache, cold then warm. Their all-pairs rows, read in 64-source sweeps
// (two on this graph), must be BFS's distances, and the chains, seeded
// alike, must walk in step.
func TestGraphChainBasics(t *testing.T) {
	g := smallGraph(t)
	cache := graph.NewSPTCache(1 << 30)
	var chains []*GraphChain
	for _, spts := range []*graph.SPTCache{nil, cache, cache} {
		c, err := NewGraphChainCached(g, 0, 15, 0, rng.New(1), spts)
		if err != nil {
			t.Fatal(err)
		}
		if c.TreeSize() <= 0 {
			t.Fatal("initial tree empty")
		}
		chains = append(chains, c)
	}
	for u := 0; u < g.N(); u++ {
		want, err := g.BFS(u)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range chains {
			for v, d := range want.Dist {
				if int(c.dist[u][v]) != int(d) {
					t.Fatalf("chain %d: dist[%d][%d] = %d, BFS %d", i, u, v, c.dist[u][v], d)
				}
			}
		}
	}
	for s := 0; s < 20; s++ {
		for i, c := range chains {
			c.Sweep()
			if c.AvgPairDist() != chains[0].AvgPairDist() || c.TreeSize() != chains[0].TreeSize() {
				t.Fatalf("chain %d diverged at sweep %d", i, s)
			}
		}
	}
	for _, c := range chains {
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.AcceptanceRate() != 1 {
			t.Fatalf("β=0 must accept everything, rate %v", c.AcceptanceRate())
		}
	}
}

func TestGraphChainErrors(t *testing.T) {
	g := smallGraph(t)
	if _, err := NewGraphChain(g, -1, 5, 0, rng.New(1)); err == nil {
		t.Fatal("bad source must error")
	}
	if _, err := NewGraphChain(g, 0, 0, 0, rng.New(1)); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := NewGraphChain(g, 0, 5, 0, nil); err == nil {
		t.Fatal("nil rng must error")
	}
	tiny := graph.NewBuilder(1).Build()
	if _, err := NewGraphChain(tiny, 0, 1, 0, rng.New(1)); err == nil {
		t.Fatal("N=1 must error")
	}
	// Disconnected graph must be rejected.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(2, 3)
	if _, err := NewGraphChain(b.Build(), 0, 2, 0, rng.New(1)); err == nil {
		t.Fatal("disconnected graph must error")
	}
}

func TestGraphChainNeverPlacesOnSource(t *testing.T) {
	g := smallGraph(t)
	src := 5
	c, err := NewGraphChain(g, src, 10, -2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 30; s++ {
		c.Sweep()
		for _, p := range c.Positions() {
			if int(p) == src {
				t.Fatal("receiver placed on source")
			}
		}
	}
}

func TestGraphChainAffinityShrinksTree(t *testing.T) {
	g := smallGraph(t)
	measure := func(beta float64) float64 {
		c, err := NewGraphChain(g, 0, 12, beta, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 150; s++ {
			c.Sweep()
		}
		sum := 0.0
		for s := 0; s < 150; s++ {
			c.Sweep()
			sum += float64(c.TreeSize())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return sum / 150
	}
	cluster := measure(10)
	uniform := measure(0)
	spread := measure(-10)
	if !(cluster < uniform && uniform < spread) {
		t.Fatalf("ordering violated: cluster %.1f uniform %.1f spread %.1f", cluster, uniform, spread)
	}
}

func TestGraphChainUniformMatchesMcast(t *testing.T) {
	// β=0 graph chain must agree with the direct with-replacement estimator.
	g := smallGraph(t)
	n := 10
	c, err := NewGraphChain(g, 0, n, 0, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const sweeps = 600
	for s := 0; s < sweeps; s++ {
		c.Sweep()
		sum += float64(c.TreeSize())
	}
	mcmc := sum / sweeps

	spt, _ := g.BFS(0)
	smp, err := mcast.NewSampler(g.N(), 0, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	cnt := mcast.NewTreeCounter(g.N())
	var recv []int32
	direct := 0.0
	const reps = 4000
	for rep := 0; rep < reps; rep++ {
		recv, _ = smp.WithReplacement(n, recv)
		direct += float64(cnt.TreeSize(spt, recv))
	}
	direct /= reps
	if math.Abs(mcmc-direct) > 0.06*direct+0.5 {
		t.Fatalf("MCMC %.2f vs direct %.2f", mcmc, direct)
	}
}

func TestGraphChainTooLarge(t *testing.T) {
	b := graph.NewBuilder(MaxGraphChainNodes + 1)
	for i := 0; i < MaxGraphChainNodes; i++ {
		_ = b.AddEdge(i, i+1)
	}
	if _, err := NewGraphChain(b.Build(), 0, 2, 0, rng.New(1)); err == nil {
		t.Fatal("oversized graph must error")
	}
}
