package reach

import (
	"context"
	"errors"
	"math"
	"testing"

	"mtreescale/internal/analytic"
	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

func karyReach(t *testing.T, k, depth int) *Reachability {
	t.Helper()
	tr, err := topology.NewKAryTree(k, depth)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Measure(tr.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMeasureKAryTree(t *testing.T) {
	r := karyReach(t, 3, 4)
	// S(d) = 3^d from the root.
	for d := 0; d <= 4; d++ {
		if r.S[d] != math.Pow(3, float64(d)) {
			t.Fatalf("S(%d) = %v", d, r.S[d])
		}
	}
	if r.Depth() != 4 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if r.Sites() != 3+9+27+81 {
		t.Fatalf("sites = %v", r.Sites())
	}
	if r.T(2) != 12 {
		t.Fatalf("T(2) = %v", r.T(2))
	}
	if r.T(-1) != 0 || r.T(100) != r.Sites() {
		t.Fatal("T out-of-range handling")
	}
}

func TestMeasureErrors(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	if _, err := Measure(g, 5); err == nil {
		t.Fatal("bad source must error")
	}
	if _, err := MeasureAveraged(g, 0, 1); err == nil {
		t.Fatal("nSources=0 must error")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := MeasureAveraged(empty, 5, 1); err == nil {
		t.Fatal("empty graph must error")
	}
}

// cancelledFromCall is a context whose Err reports context.Canceled from
// its from-th call on, and counts the calls.
type cancelledFromCall struct {
	context.Context
	from, calls int
}

func (c *cancelledFromCall) Err() error {
	if c.calls++; c.calls >= c.from {
		return context.Canceled
	}
	return nil
}

// MeasureAveragedCached polls its context before every source's histogram,
// with the cache on and off, and stops at the first poll that reports
// cancellation.
func TestMeasureAveragedCachedHonoursCancellation(t *testing.T) {
	g, err := topology.TransitStubSized(200, 3.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, spts := range []*graph.SPTCache{nil, graph.NewSPTCache(1 << 30)} {
		for _, from := range []int{1, 2, 20} {
			ctx := &cancelledFromCall{Context: context.Background(), from: from}
			r, err := MeasureAveragedCached(ctx, g, 20, 7, spts)
			if !errors.Is(err, context.Canceled) || r != nil {
				t.Fatalf("cache %v, cancelled from poll %d: %v, %v; want context.Canceled", spts != nil, from, r, err)
			}
			if ctx.calls != from {
				t.Fatalf("cache %v: ctx.Err called %d times, want the run to stop at poll %d", spts != nil, ctx.calls, from)
			}
		}
	}
}

// cancelledOnMiss is a context whose Err reports context.Canceled once its
// cache has computed a tree.
type cancelledOnMiss struct {
	context.Context
	cache *graph.SPTCache
}

func (c cancelledOnMiss) Err() error {
	if c.cache.Stats().Misses > 0 {
		return context.Canceled
	}
	return nil
}

// MeasureAveragedCached fills its trees one lane group at a time, so a
// cancel that lands during the first fill stops the sweep before it
// computes a second group.
func TestMeasureAveragedCachedCancelStopsAfterOneGroup(t *testing.T) {
	g, err := topology.TransitStubSized(2000, 3.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := graph.NewSPTCache(1 << 30)
	r, err := MeasureAveragedCached(cancelledOnMiss{context.Background(), cache}, g, 200, 7, cache)
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("got %v, %v; want context.Canceled", r, err)
	}
	if m := cache.Stats().Misses; m == 0 || m > sweepGroup {
		t.Fatalf("cancelled sweep computed %d trees, want 1..%d", m, sweepGroup)
	}
}

// TestMeasureAveragedDeterministic: S(r) is a function of the graph, the
// source count and the seed. Uncached, through a cold cache and through the
// same cache warm, it must equal, bit for bit, the histogram of per-source
// BFS trees over the same source draws.
func TestMeasureAveragedDeterministic(t *testing.T) {
	g, err := topology.TransitStubSized(200, 3.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	const nSources, seed = 20, 7
	r := rng.New(seed)
	var want []float64
	for i := 0; i < nSources; i++ {
		spt, err := g.BFS(r.Intn(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		for d, c := range spt.DistHistogram() {
			for len(want) <= d {
				want = append(want, 0)
			}
			want[d] += float64(c)
		}
	}
	for d := range want {
		want[d] /= nSources
	}
	cache := graph.NewSPTCache(1 << 30)
	for _, run := range []struct {
		name string
		spts *graph.SPTCache
	}{{"uncached", nil}, {"cold cache", cache}, {"warm cache", cache}} {
		got, err := MeasureAveragedCached(context.Background(), g, nSources, seed, run.spts)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(got.S) != len(want) {
			t.Fatalf("%s: %d radii, want %d", run.name, len(got.S), len(want))
		}
		for d := range want {
			if got.S[d] != want[d] {
				t.Fatalf("%s: S(%d) = %v, want %v", run.name, d, got.S[d], want[d])
			}
		}
		// Total mass: averaged S must sum to the node count (graph connected).
		if math.Abs(got.Sites()+1-float64(g.N())) > 1e-6 {
			t.Fatalf("%s: sites %v vs N %d", run.name, got.Sites(), g.N())
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("warm run read nothing from the cache: %+v", st)
	}
}

func TestAvgDist(t *testing.T) {
	r := &Reachability{S: []float64{1, 2, 2}} // two at 1 hop, two at 2 hops
	if got := r.AvgDist(); got != 1.5 {
		t.Fatalf("avg dist = %v", got)
	}
	empty := &Reachability{S: []float64{1}}
	if empty.AvgDist() != 0 {
		t.Fatal("no sites: avg dist 0")
	}
}

func TestTCurve(t *testing.T) {
	r := &Reachability{S: []float64{1, 3, 9}}
	rs, ts := r.TCurve()
	if len(rs) != 2 || rs[0] != 1 || rs[1] != 2 {
		t.Fatalf("rs = %v", rs)
	}
	if ts[0] != 3 || ts[1] != 12 {
		t.Fatalf("ts = %v", ts)
	}
}

func TestExpectedTreeLeavesMatchesEquation4(t *testing.T) {
	// For k-ary trees, S(r) = k^r, and Equation 23 must reduce exactly to
	// Equation 4 (the paper derives 23 as the generalization of 4).
	r := karyReach(t, 2, 8)
	tr := analytic.Tree{K: 2, Depth: 8}
	for _, n := range []float64{0, 1, 7, 63, 900} {
		got, err := r.ExpectedTreeLeaves(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.LeafTreeSize(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*(want+1) {
			t.Fatalf("n=%v: Eq23 %v vs Eq4 %v", n, got, want)
		}
	}
}

func TestExpectedTreeThroughoutMatchesEquation21(t *testing.T) {
	r := karyReach(t, 3, 5)
	tr := analytic.Tree{K: 3, Depth: 5}
	for _, n := range []float64{1, 5, 40, 300} {
		got, err := r.ExpectedTreeThroughout(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.ThroughoutTreeSize(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*(want+1) {
			t.Fatalf("n=%v: Eq30 %v vs Eq21 %v", n, got, want)
		}
	}
}

func TestExpectedTreeErrors(t *testing.T) {
	r := karyReach(t, 2, 3)
	if _, err := r.ExpectedTreeLeaves(-1); err == nil {
		t.Fatal("negative n must error")
	}
	if _, err := r.ExpectedTreeThroughout(-1); err == nil {
		t.Fatal("negative n must error")
	}
	empty := &Reachability{S: []float64{1}}
	if _, err := empty.ExpectedTreeThroughout(5); err == nil {
		t.Fatal("no sites must error")
	}
}

func TestExpectedTreeSaturates(t *testing.T) {
	r := karyReach(t, 2, 6)
	lInf, err := r.ExpectedTreeLeaves(1e12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lInf-r.Sites()) > 1e-6 {
		t.Fatalf("saturation %v vs sites %v", lInf, r.Sites())
	}
}

func TestExpectedTreeSingleLinkRadius(t *testing.T) {
	// A path graph has S(r) = 1 at every radius; any n >= 1 receiver set
	// from the far end uses every link up to it.
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		_ = b.AddEdge(i, i+1)
	}
	g := b.Build()
	r, err := Measure(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := r.ExpectedTreeLeaves(3)
	if err != nil {
		t.Fatal(err)
	}
	if l != 4 {
		t.Fatalf("path tree = %v, want 4", l)
	}
	l0, _ := r.ExpectedTreeLeaves(0)
	if l0 != 0 {
		t.Fatalf("n=0 tree = %v", l0)
	}
}

func TestMeasuredGrowthClasses(t *testing.T) {
	// The paper's dichotomy: random/transit-stub/PA graphs are exponential;
	// TIERS-like and path-like graphs are sub-exponential.
	ts, err := topology.TransitStubSized(500, 3.6, 9)
	if err != nil {
		t.Fatal(err)
	}
	rTS, err := MeasureAveraged(ts, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	clsTS, err := rTS.Classify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if clsTS == GrowthSubExponential {
		t.Fatalf("transit-stub classified %v; expected exponential-ish", clsTS)
	}

	// A ring is maximally sub-exponential: S(r) = 2 constant.
	b := graph.NewBuilder(200)
	for i := 0; i < 200; i++ {
		_ = b.AddEdge(i, (i+1)%200)
	}
	ring := b.Build()
	rRing, err := MeasureAveraged(ring, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	clsRing, err := rRing.Classify(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if clsRing != GrowthSubExponential {
		t.Fatalf("ring classified %v; want sub-exponential", clsRing)
	}
}

func TestClassifyErrors(t *testing.T) {
	r := karyReach(t, 2, 8)
	if _, err := r.Classify(0); err == nil {
		t.Fatal("satFrac=0 must error")
	}
	if _, err := r.Classify(1.5); err == nil {
		t.Fatal("satFrac>1 must error")
	}
	shallow := &Reachability{S: []float64{1, 5}}
	if _, err := shallow.Classify(0.9); err == nil {
		t.Fatal("too-shallow reachability must error")
	}
}

func TestGrowthClassString(t *testing.T) {
	if GrowthExponential.String() != "exponential" ||
		GrowthSubExponential.String() != "sub-exponential" ||
		GrowthSuperExponential.String() != "super-exponential" {
		t.Fatal("class strings")
	}
	if GrowthClass(42).String() == "" {
		t.Fatal("unknown class must render")
	}
}

func TestModelsNormalized(t *testing.T) {
	exp, pow, gau, err := Figure8Models(2, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	d := 20
	if math.Abs(pow.S[d]-exp.S[d]) > 1e-6 || math.Abs(gau.S[d]-exp.S[d]) > 1e-6 {
		t.Fatalf("S(D) not normalized: %v %v %v", exp.S[d], pow.S[d], gau.S[d])
	}
	// Classifications must come out as designed.
	for _, c := range []struct {
		r    *Reachability
		want GrowthClass
	}{
		{exp, GrowthExponential},
		{pow, GrowthSubExponential},
		{gau, GrowthSuperExponential},
	} {
		got, err := c.r.Classify(1.0)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("model classified %v, want %v", got, c.want)
		}
	}
}

func TestModelErrors(t *testing.T) {
	if _, err := Exponential(1, 5); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := Exponential(2, 0); err == nil {
		t.Fatal("depth=0 must error")
	}
	if _, err := PowerLaw(0, 5, 100); err == nil {
		t.Fatal("lambda=0 must error")
	}
	if _, err := PowerLaw(2, 0, 100); err == nil {
		t.Fatal("depth=0 must error")
	}
	if _, err := GaussianExponential(0, 100); err == nil {
		t.Fatal("depth=0 must error")
	}
	if _, _, _, err := Figure8Models(1, 2, 5); err == nil {
		t.Fatal("bad k must propagate")
	}
}

func TestFigure8Separation(t *testing.T) {
	// Figure 8's message: the non-exponential cases behave differently from
	// the exponential one. Check normalized curves differ substantially at
	// moderate n.
	exp, pow, gau, err := Figure8Models(2, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	n := 1e4
	le, _ := exp.ExpectedTreeLeaves(n)
	lp, _ := pow.ExpectedTreeLeaves(n)
	lg, _ := gau.ExpectedTreeLeaves(n)
	d := exp.AvgDist() // not used for normalization here; sanity only
	_ = d
	// Sub-exponential reachability: more links near the source are shared,
	// so the tree is *smaller* relative to exponential; super-exponential
	// the opposite... verify a clear ordering exists rather than equality.
	if math.Abs(lp-le) < 0.05*le && math.Abs(lg-le) < 0.05*le {
		t.Fatalf("models indistinguishable at n=%v: %v %v %v", n, le, lp, lg)
	}
}

func TestMeasureAveragedOnRing(t *testing.T) {
	// Every source on a ring sees the same S(r); averaging must be exact.
	n := 11
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		_ = b.AddEdge(i, (i+1)%n)
	}
	g := b.Build()
	r, err := MeasureAveraged(g, 5, rng.Mix(3))
	if err != nil {
		t.Fatal(err)
	}
	// S(r) = 2 for r = 1..5 on an 11-ring.
	for d := 1; d <= 5; d++ {
		if math.Abs(r.S[d]-2) > 1e-9 {
			t.Fatalf("S(%d) = %v", d, r.S[d])
		}
	}
}
