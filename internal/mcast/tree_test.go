package mcast

import (
	"testing"
	"testing/quick"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

func pathGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func randGraph(seed int64, n, extra int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(r.Intn(n), r.Intn(n))
	}
	return b.Build()
}

func TestTreeSizeSingleReceiver(t *testing.T) {
	g := pathGraph(t, 10)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	// L(1) must equal the unicast distance.
	for v := 1; v < 10; v++ {
		if got := c.TreeSize(spt, []int32{int32(v)}); got != v {
			t.Fatalf("L({%d}) = %d, want %d", v, got, v)
		}
	}
}

func TestTreeSizeSharedPath(t *testing.T) {
	// Star with two rays: 0-1-2-3 and 0-4-5. Receivers 3 and 5 share nothing;
	// receivers 2 and 3 share the prefix.
	b := graph.NewBuilder(6)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(2, 3)
	_ = b.AddEdge(0, 4)
	_ = b.AddEdge(4, 5)
	g := b.Build()
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	if got := c.TreeSize(spt, []int32{3, 5}); got != 5 {
		t.Fatalf("disjoint rays: L = %d, want 5", got)
	}
	if got := c.TreeSize(spt, []int32{2, 3}); got != 3 {
		t.Fatalf("shared prefix: L = %d, want 3", got)
	}
}

func TestTreeSizeDuplicatesFree(t *testing.T) {
	g := pathGraph(t, 8)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	a := c.TreeSize(spt, []int32{5})
	b := c.TreeSize(spt, []int32{5, 5, 5, 5})
	if a != b {
		t.Fatalf("duplicates changed tree size: %d vs %d", a, b)
	}
}

func TestTreeSizeSourceAsReceiver(t *testing.T) {
	g := pathGraph(t, 5)
	spt, _ := g.BFS(2)
	c := NewTreeCounter(g.N())
	if got := c.TreeSize(spt, []int32{2}); got != 0 {
		t.Fatalf("L({source}) = %d, want 0", got)
	}
}

func TestTreeSizeEmpty(t *testing.T) {
	g := pathGraph(t, 5)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	if got := c.TreeSize(spt, nil); got != 0 {
		t.Fatalf("L({}) = %d", got)
	}
}

func TestTreeSizeUnreachableIgnored(t *testing.T) {
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(2, 3)
	g := b.Build()
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	if got := c.TreeSize(spt, []int32{1, 3}); got != 1 {
		t.Fatalf("L = %d, want 1 (node 3 unreachable)", got)
	}
	if got := c.TreeSize(spt, []int32{-5, 99}); got != 0 {
		t.Fatalf("garbage receivers must be ignored, L = %d", got)
	}
}

func TestTreeSizeAllNodes(t *testing.T) {
	// Spanning everything must give exactly the SPT size = reachable-1.
	g := randGraph(3, 100, 150)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	if got := c.TreeSize(spt, all); got != spt.Reachable()-1 {
		t.Fatalf("full tree = %d, want %d", got, spt.Reachable()-1)
	}
}

func TestTreeSizeMatchesSlowReference(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%60) + 2
		g := randGraph(seed, n, n/2)
		spt, err := g.BFS(0)
		if err != nil {
			return false
		}
		r := rng.New(seed + 1)
		m := int(mRaw)%n + 1
		recv := make([]int32, m)
		for i := range recv {
			recv[i] = int32(r.Intn(n))
		}
		c := NewTreeCounter(n)
		return c.TreeSize(spt, recv) == TreeSizeSlow(spt, recv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeCounterReuseAcrossGraphSizes(t *testing.T) {
	// A counter created small must adapt to larger graphs.
	c := NewTreeCounter(4)
	g := randGraph(9, 500, 700)
	spt, _ := g.BFS(0)
	if got, want := c.TreeSize(spt, []int32{42}), int(spt.Dist[42]); got != want {
		t.Fatalf("resized counter: L = %d, want %d", got, want)
	}
}

func TestTreeCounterEpochIsolation(t *testing.T) {
	// Consecutive measurements must not leak visited state.
	g := pathGraph(t, 10)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	first := c.TreeSize(spt, []int32{9})
	for i := 0; i < 100; i++ {
		if got := c.TreeSize(spt, []int32{9}); got != first {
			t.Fatalf("iteration %d: L = %d, want %d", i, got, first)
		}
	}
}

func TestMeasurementInvariants(t *testing.T) {
	g := randGraph(11, 300, 450)
	spt, _ := g.BFS(0)
	c := NewTreeCounter(g.N())
	r := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		m := r.Intn(50) + 1
		recv := make([]int32, m)
		for i := range recv {
			recv[i] = int32(r.Intn(g.N()))
		}
		meas := c.Measure(spt, recv)
		if err := meas.Validate(spt); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Max single receiver distance is a lower bound on L.
		var maxD int32
		for _, v := range recv {
			if spt.Dist[v] > maxD {
				maxD = spt.Dist[v]
			}
		}
		if meas.Links < int(maxD) {
			t.Fatalf("trial %d: L=%d below max dist %d", trial, meas.Links, maxD)
		}
	}
}

func TestMeasurementRatioZeroWhenNoReceivers(t *testing.T) {
	var m Measurement
	if m.Ratio() != 0 || m.AvgUnicast() != 0 {
		t.Fatal("empty measurement must have zero ratio")
	}
}

func TestUnicastSum(t *testing.T) {
	g := pathGraph(t, 6)
	spt, _ := g.BFS(0)
	hops, reach := UnicastSum(spt, []int32{1, 3, 5})
	if hops != 9 || reach != 3 {
		t.Fatalf("hops=%d reach=%d", hops, reach)
	}
	hops, reach = UnicastSum(spt, []int32{-1, 100})
	if hops != 0 || reach != 0 {
		t.Fatalf("garbage: hops=%d reach=%d", hops, reach)
	}
}

func TestTreeSizeOnKAryTreeMatchesDepthBound(t *testing.T) {
	tr, err := topology.NewKAryTree(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	spt, _ := tr.Graph.BFS(0)
	c := NewTreeCounter(tr.Graph.N())
	// One leaf: exactly D links.
	if got := c.TreeSize(spt, []int32{int32(tr.Leaf(0))}); got != 6 {
		t.Fatalf("single leaf tree = %d, want 6", got)
	}
	// All leaves: the whole tree, N-1 links.
	all := make([]int32, tr.Leaves)
	for i := range all {
		all[i] = int32(tr.Leaf(i))
	}
	if got := c.TreeSize(spt, all); got != tr.Graph.N()-1 {
		t.Fatalf("all-leaves tree = %d, want %d", got, tr.Graph.N()-1)
	}
}

// After 2³²−1 measurements a counter's epoch comes round to 0, the stamp
// every node outside the tree holds. Each entry point must then clear the
// stamps and restart the epochs, not see every node as already in the tree.
// Each row stamps a short path first, so a restart that skips the clear
// miscounts too.
func TestTreeCounterEpochWrap(t *testing.T) {
	g := pathGraph(t, 6)
	spt, _ := g.BFS(0)
	coreSPT, _ := g.BFS(2)
	pd, pd2 := packTree(spt, nil), packTree(coreSPT, nil)
	recv := []int32{3, 5}
	links := TreeSizeSlow(spt, recv)
	shared := NewTreeCounter(g.N()).SharedTreeSize(coreSPT, 0, recv)
	measure := NewTreeCounter(g.N()).Measure(spt, recv)
	for _, tc := range []struct {
		name    string
		measure func(c *TreeCounter, recv []int32) any
		want    any
	}{
		{"TreeSize", func(c *TreeCounter, recv []int32) any { return c.TreeSize(spt, recv) }, links},
		{"Begin", func(c *TreeCounter, recv []int32) any {
			c.Begin(spt)
			added := 0
			for _, r := range recv {
				added += c.Add(spt, r)
			}
			return added
		}, links},
		{"SharedTreeSize", func(c *TreeCounter, recv []int32) any { return c.SharedTreeSize(coreSPT, 0, recv) }, shared},
		{"measureClimb", func(c *TreeCounter, recv []int32) any { return c.measureClimb(0, pd, recv) }, measure},
		{"treeSizeClimb", func(c *TreeCounter, recv []int32) any { return c.sharedTreeSizeClimb(0, pd, -1, recv) }, links},
		{"sharedTreeSizeClimb", func(c *TreeCounter, recv []int32) any { return c.sharedTreeSizeClimb(2, pd2, 0, recv) }, shared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewTreeCounter(g.N())
			tc.measure(c, []int32{1})
			c.epoch = -1
			if got := tc.measure(c, recv); got != tc.want {
				t.Fatalf("as the epoch wraps: %v, want %v", got, tc.want)
			}
			if got := tc.measure(c, recv); got != tc.want {
				t.Fatalf("after the epoch wrapped: %v, want %v", got, tc.want)
			}
		})
	}
}
