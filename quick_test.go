package mtreescale_test

import (
	"math"
	"testing"
	"testing/quick"

	mtreescale "mtreescale"
)

// These are the repository's cross-cutting invariants, checked through the
// public API with testing/quick.

// TestPropertyTreeSizeBounds: for any random graph, source and receiver set,
// max_i dist(s, r_i) ≤ L ≤ min(Σ_i dist(s, r_i), N−1).
func TestPropertyTreeSizeBounds(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, srcRaw uint8) bool {
		n := int(nRaw%100) + 2
		g, err := mtreescale.TransitStubSized(n+64, 3.0, seed)
		if err != nil {
			return false
		}
		src := int(srcRaw) % g.N()
		spt, err := g.BFS(src)
		if err != nil {
			return false
		}
		m := int(mRaw)%g.N() + 1
		recv := make([]int32, m)
		for i := range recv {
			recv[i] = int32((src + 1 + i*7) % g.N())
		}
		c := mtreescale.NewTreeCounter(g.N())
		links := c.TreeSize(spt, recv)
		var maxD, sumD int
		for _, r := range recv {
			d := int(spt.Dist[r])
			sumD += d
			if d > maxD {
				maxD = d
			}
		}
		return links >= maxD && links <= sumD && links <= g.N()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTreeSizeMonotoneInReceivers: adding receivers never shrinks
// the delivery tree.
func TestPropertyTreeSizeMonotoneInReceivers(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		g, err := mtreescale.TiersSized(200, seed)
		if err != nil {
			return false
		}
		spt, err := g.BFS(0)
		if err != nil {
			return false
		}
		c := mtreescale.NewTreeCounter(g.N())
		m := int(mRaw)%30 + 1
		recv := make([]int32, 0, m)
		prev := 0
		for i := 0; i < m; i++ {
			recv = append(recv, int32(1+(i*13)%(g.N()-1)))
			links := c.TreeSize(spt, recv)
			if links < prev {
				return false
			}
			prev = links
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAnalyticBrackets: the uniform expectation always lies between
// the extreme affinity and disaffinity tree sizes. Restricted to m ≤ M/2:
// the Eq 4 + Eq 1 composition approximates E[L(m)] through with-replacement
// draws whose distinct count fluctuates around m, so near saturation it can
// poke slightly above the exact distinct-m maximum.
func TestPropertyAnalyticBrackets(t *testing.T) {
	f := func(kRaw, dRaw uint8, mRaw uint16) bool {
		k := int(kRaw%3) + 2
		d := int(dRaw%5) + 3
		tr := mtreescale.AnalyticTree{K: k, Depth: d}
		M := int64(tr.Leaves())
		m := int64(mRaw)%(M/2) + 1
		uni, err := tr.DistinctTreeSize(float64(m))
		if err != nil {
			return false
		}
		lo, err1 := tr.ExtremeAffinityTreeSize(m)
		hi, err2 := tr.ExtremeDisaffinityTreeSize(m)
		if err1 != nil || err2 != nil {
			return false
		}
		return uni >= lo-1e-9 && uni <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEquation1Bounds: m̄(n) is nondecreasing in n and never exceeds
// min(n, M).
func TestPropertyEquation1Bounds(t *testing.T) {
	f := func(MRaw, nRaw uint16) bool {
		M := float64(MRaw%2000) + 2
		n := float64(nRaw % 5000)
		m, err := mtreescale.ExpectedDistinct(M, n)
		if err != nil {
			return false
		}
		if m > n+1e-9 || m > M+1e-9 || m < 0 {
			return false
		}
		m2, err := mtreescale.ExpectedDistinct(M, n+1)
		if err != nil {
			return false
		}
		return m2 >= m-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEquation4Bounds: for leaf receivers, D ≤ L̄(n) ≤ min(nD, all
// links) whenever n ≥ 1.
func TestPropertyEquation4Bounds(t *testing.T) {
	f := func(kRaw, dRaw uint8, nRaw uint16) bool {
		k := int(kRaw%4) + 2
		d := int(dRaw%6) + 1
		tr := mtreescale.AnalyticTree{K: k, Depth: d}
		n := float64(nRaw%1000) + 1
		l, err := tr.LeafTreeSize(n)
		if err != nil {
			return false
		}
		allLinks := tr.Sites() // Σ k^l — every node has one uplink
		return l >= float64(d)-1e-9 &&
			l <= n*float64(d)+1e-9 &&
			l <= allLinks+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReachabilityConservation: measured S(r) sums to the node
// count for connected graphs, and T is nondecreasing.
func TestPropertyReachabilityConservation(t *testing.T) {
	f := func(seed int64) bool {
		g, err := mtreescale.TransitStubSized(150, 3.6, seed)
		if err != nil {
			return false
		}
		r, err := mtreescale.MeasureReachability(g, 5, seed)
		if err != nil {
			return false
		}
		if math.Abs(r.Sites()+1-float64(g.N())) > 1e-6 {
			return false
		}
		prev := 0.0
		for d := 0; d <= r.Depth(); d++ {
			if r.T(d) < prev-1e-9 {
				return false
			}
			prev = r.T(d)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMeasureCurveRatioAtLeastOne: the delivery tree can never use
// fewer links than the average unicast path (ratio ≥ 1 up to float fuzz).
func TestPropertyMeasureCurveRatioAtLeastOne(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		g, err := mtreescale.GNP(80, 0.08, seed)
		if err != nil || g.N() < 10 {
			return true // degenerate giant component; skip
		}
		m := int(mRaw)%(g.N()/2) + 1
		pts, err := mtreescale.MeasureCurve(g, []int{m}, mtreescale.Distinct,
			mtreescale.Protocol{NSource: 3, NRcvr: 3, Seed: seed})
		if err != nil {
			return false
		}
		return pts[0].MeanRatio >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPricingSubadditive: P(a+b) ≤ P(a) + P(b) for the concave
// tariff — merging groups never costs more.
func TestPropertyPricingSubadditive(t *testing.T) {
	p := mtreescale.DefaultPricing(1)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw%10000) + 1
		b := int(bRaw%10000) + 1
		pa, err1 := p.GroupPrice(a)
		pb, err2 := p.GroupPrice(b)
		pab, err3 := p.GroupPrice(a + b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return pab <= pa+pb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
