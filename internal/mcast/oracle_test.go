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

// exactUnicast is the exact expectation of ū, a sample's mean unicast
// distance, given the SPT: the mean distance over the reachable sites, in
// both modes. Given how many receivers are reachable, those receivers are a
// uniform draw from the reachable sites, so each one's expected distance is
// that mean, and a sample counts when at least one receiver is reachable.
// It is computed as AvgUnicast computes a sample's ū, so a sample of every
// site equals it exactly.
func exactUnicast(spt *graph.SPT) float64 {
	var all Measurement
	for _, d := range spt.Dist {
		if d > 0 { // reachable, and not the source
			all.UnicastHops += int64(d)
			all.Receivers++
		}
	}
	return all.AvgUnicast()
}

// TestCurveMatchesExactExpectation checks the curve engine's fixed-seed
// per-source means of the tree size and of ū against exactTreeSize and
// exactUnicast in both modes, at sizes on both sides of the dense crossover
// for the protocol's sweep batch: |z| < 4 against the sample standard
// error. At m = P in Distinct mode, where every site is a receiver, the
// mean tree size must equal the exact one and every sample's ū the exact
// mean distance, with no tolerance. m = P comes twice, mid-grid and last,
// so the engine counts it once per source and leaves the draws it skips
// owed to the sampler, which must take them before the next size. The test
// replays each source's receiver draws to get the per-sample spread, and
// requires the replay's link and unicast sums to equal the engine's partial
// sums exactly, so the means tested are the engine's own.
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
		p := Protocol{NSource: 3, NRcvr: 400, Seed: 17}
		lanes := min(p.NRcvr, sweepLanes)
		swept := (n + lanes*denseCrossover - 1) / (lanes * denseCrossover) // the smallest swept size
		if swept < 2 || dense(swept-1, lanes, n) || !dense(swept, lanes, n) {
			t.Fatalf("%s: N=%d puts no size below the crossover (first swept size %d)", topo.name, n, swept)
		}
		sizes := []int{swept / 2, sites, swept - 1, swept, n / 16, n / 4, sites}
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
				exactU := exactUnicast(spt)
				var recv []int32
				for k, m := range sizes {
					whole := mode == Distinct && m == sites
					var sum, sq, uSum, uSq float64
					for rep := 0; rep < p.NRcvr; rep++ {
						if mode == Distinct {
							recv, err = smp.Distinct(m, recv)
						} else {
							recv, err = smp.WithReplacement(m, recv)
						}
						if err != nil {
							t.Fatal(err)
						}
						meas := c.Measure(spt, recv)
						l, u := float64(meas.Links), meas.AvgUnicast()
						if whole && u != exactU {
							t.Fatalf("%s source %d m=P: sample ū %v, exact %v", topo.name, src, u, exactU)
						}
						sum += l
						sq += l * l
						uSum += u
						uSq += u * u
					}
					cell := si*len(sizes) + k
					if sum != part.LinkSum[cell] || uSum != part.UnicastSum[cell] || part.Samples[cell] != p.NRcvr {
						t.Fatalf("%s %v source %d m=%d: replayed link and ū sums %v, %v over %d; engine %v, %v over %d",
							topo.name, mode, src, m, sum, uSum, p.NRcvr, part.LinkSum[cell], part.UnicastSum[cell], part.Samples[cell])
					}
					exact := exactTreeSize(spt, sites, m, mode)
					if whole {
						if mean := sum / float64(p.NRcvr); mean != exact {
							t.Errorf("%s source %d m=P: mean %v, exact %v", topo.name, src, mean, exact)
						}
						continue
					}
					for _, q := range []struct {
						what           string
						sum, sq, exact float64
					}{{"L", sum, sq, exact}, {"ū", uSum, uSq, exactU}} {
						mean := q.sum / float64(p.NRcvr)
						se := math.Sqrt((q.sq/float64(p.NRcvr) - mean*mean) / float64(p.NRcvr-1))
						if z := (mean - q.exact) / se; !(math.Abs(z) < 4) { // a NaN z fails too
							t.Errorf("%s %v source %d m=%d (dense %v): mean %s %.3f, exact %.3f, z = %.2f",
								topo.name, mode, src, m, dense(m, lanes, n), q.what, mean, q.exact, z)
						}
					}
				}
			}
		}
	}
}
