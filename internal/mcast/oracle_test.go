package mcast

import (
	"context"
	"math"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// exactTreeSize is the exact expectation of the delivery-tree size of a
// uniform distinct m-group drawn from sites sites, given the SPT:
//
//	E[L(m) | SPT] = Σ_{v ≠ s} [1 − C(sites − s_v, m) / C(sites, m)]
//
// where s_v is the number of sites in v's subtree: node v's uplink is in
// the tree iff some receiver lies below it. The binomial ratio is taken in
// log space. Subtree counts come from the test's own accumulation over
// Order, not from the engine's rank rows. Every node other than the source
// is a site, as in the engine's default protocol.
func exactTreeSize(spt *graph.SPT, sites, m int) float64 {
	sub := make([]int, len(spt.Dist))
	for i := len(spt.Order) - 1; i > 0; i-- {
		v := spt.Order[i]
		sub[v]++
		sub[spt.Parent[v]] += sub[v]
	}
	lchoose := func(n, k int) float64 {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(k + 1))
		c, _ := math.Lgamma(float64(n - k + 1))
		return a - b - c
	}
	all := lchoose(sites, m)
	var e float64
	for _, v := range spt.Order[1:] {
		miss := 0.0
		if sites-sub[v] >= m {
			miss = math.Exp(lchoose(sites-sub[v], m) - all)
		}
		e += 1 - miss
	}
	return e
}

// TestCurveMatchesExactExpectation checks the curve engine's fixed-seed
// per-source mean tree sizes against exactTreeSize at sizes on both sides
// of the dense crossover: |z| < 4 against the sample standard error, and
// exact equality at m = P, where every site is a receiver. The test replays
// each source's receiver draws to get the per-sample spread, and requires
// the replay's link sums to equal the engine's partial sums exactly, so the
// means tested are the engine's own.
func TestCurveMatchesExactExpectation(t *testing.T) {
	for _, topo := range []struct {
		name  string
		scale float64
	}{{"ts1000", 1}, {"mbone", 0.25}} {
		g, err := topology.GenerateCached(topo.name, 0, topo.scale)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		sites := n - 1
		sizes := []int{n / 64, n / 32, n / 16, n / 4, sites}
		p := Protocol{NSource: 3, NRcvr: 400, Seed: 17, BatchBFS: true}
		part, err := MeasureCurvePartialCtx(context.Background(), g, sizes, Distinct, p, 0, p.NSource)
		if err != nil {
			t.Fatal(err)
		}
		c := NewTreeCounter(n)
		for si, src := range drawSources(g, p) {
			spt, err := g.BFS(src)
			if err != nil {
				t.Fatal(err)
			}
			smp, err := NewSampler(n, src, rng.NewChild(p.Seed, int64(si)))
			if err != nil {
				t.Fatal(err)
			}
			var recv []int32
			for k, m := range sizes {
				var sum, sq float64
				for rep := 0; rep < p.NRcvr; rep++ {
					if recv, err = smp.Distinct(m, recv); err != nil {
						t.Fatal(err)
					}
					l := float64(c.TreeSize(spt, recv))
					sum += l
					sq += l * l
				}
				cell := si*len(sizes) + k
				if sum != part.LinkSum[cell] || part.Samples[cell] != p.NRcvr {
					t.Fatalf("%s source %d m=%d: replayed link sum %v over %d, engine %v over %d",
						topo.name, src, m, sum, p.NRcvr, part.LinkSum[cell], part.Samples[cell])
				}
				exact := exactTreeSize(spt, sites, m)
				mean := sum / float64(p.NRcvr)
				if m == sites {
					if mean != exact {
						t.Errorf("%s source %d m=P: mean %v, exact %v", topo.name, src, mean, exact)
					}
					continue
				}
				se := math.Sqrt((sq/float64(p.NRcvr) - mean*mean) / float64(p.NRcvr-1))
				if z := (mean - exact) / se; math.Abs(z) >= 4 {
					t.Errorf("%s source %d m=%d (dense %v): mean %.3f, exact %.3f, z = %.2f",
						topo.name, src, m, dense(m, n), mean, exact, z)
				}
			}
		}
	}
}
