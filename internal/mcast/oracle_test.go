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
// uniform group of size drawn from sites sites, given the SPT. In Distinct
// mode the group is size distinct sites,
//
//	E[L(m) | SPT] = Σ_{v ≠ s} [1 − C(sites − s_v, m) / C(sites, m)],
//
// and in WithReplacement mode it is size independent draws,
//
//	E[L̄(n) | SPT] = Σ_{v ≠ s} [1 − (1 − s_v/sites)^n],
//
// where s_v is the number of sites in v's subtree: node v's uplink is in
// the tree iff some receiver lies below it. The binomial ratio is taken in
// log space. Subtree counts come from the test's own accumulation over
// Order, not from the engine's rank rows. Every node other than the source
// is a site, as in the engine's default protocol.
func exactTreeSize(spt *graph.SPT, sites, size int, mode Mode) float64 {
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
	all := lchoose(sites, size)
	var e float64
	for _, v := range spt.Order[1:] {
		miss := 0.0
		switch {
		case mode == WithReplacement:
			miss = math.Pow(1-float64(sub[v])/float64(sites), float64(size))
		case sites-sub[v] >= size:
			miss = math.Exp(lchoose(sites-sub[v], size) - all)
		}
		e += 1 - miss
	}
	return e
}

// TestCurveMatchesExactExpectation checks the curve engine's fixed-seed
// per-source mean tree sizes against exactTreeSize in both modes, at sizes
// on both sides of the dense crossover for the protocol's sweep batch:
// |z| < 4 against the sample standard error, and exact equality at m = P in
// Distinct mode, where every site is a receiver. The test replays each
// source's receiver draws to get the per-sample spread, and requires the
// replay's link sums to equal the engine's partial sums exactly, so the
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
		p := Protocol{NSource: 3, NRcvr: 400, Seed: 17, BatchBFS: true}
		lanes := min(p.NRcvr, sweepLanes)
		swept := (n + lanes*denseCrossover - 1) / (lanes * denseCrossover) // the smallest swept size
		if swept < 2 || dense(swept-1, lanes, n) || !dense(swept, lanes, n) {
			t.Fatalf("%s: N=%d puts no size below the crossover (first swept size %d)", topo.name, n, swept)
		}
		sizes := []int{swept / 2, swept - 1, swept, n / 16, n / 4, sites}
		for _, mode := range []Mode{Distinct, WithReplacement} {
			part, err := MeasureCurvePartialCtx(context.Background(), g, sizes, mode, p, 0, p.NSource)
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
						if mode == Distinct {
							recv, err = smp.Distinct(m, recv)
						} else {
							recv, err = smp.WithReplacement(m, recv)
						}
						if err != nil {
							t.Fatal(err)
						}
						l := float64(c.TreeSize(spt, recv))
						sum += l
						sq += l * l
					}
					cell := si*len(sizes) + k
					if sum != part.LinkSum[cell] || part.Samples[cell] != p.NRcvr {
						t.Fatalf("%s %v source %d m=%d: replayed link sum %v over %d, engine %v over %d",
							topo.name, mode, src, m, sum, p.NRcvr, part.LinkSum[cell], part.Samples[cell])
					}
					exact := exactTreeSize(spt, sites, m, mode)
					mean := sum / float64(p.NRcvr)
					if mode == Distinct && m == sites {
						if mean != exact {
							t.Errorf("%s source %d m=P: mean %v, exact %v", topo.name, src, mean, exact)
						}
						continue
					}
					se := math.Sqrt((sq/float64(p.NRcvr) - mean*mean) / float64(p.NRcvr-1))
					if z := (mean - exact) / se; math.Abs(z) >= 4 {
						t.Errorf("%s %v source %d m=%d (dense %v): mean %.3f, exact %.3f, z = %.2f",
							topo.name, mode, src, m, dense(m, lanes, n), mean, exact, z)
					}
				}
			}
		}
	}
}
