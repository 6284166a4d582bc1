package graph

import (
	"testing"
	"testing/quick"

	"mtreescale/internal/rng"
)

func TestBFSPath(t *testing.T) {
	g := path(t, 6)
	spt, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if int(spt.Dist[v]) != v {
			t.Fatalf("dist[%d] = %d", v, spt.Dist[v])
		}
	}
	if spt.Depth() != 5 {
		t.Fatalf("depth = %d", spt.Depth())
	}
	if spt.Reachable() != 6 {
		t.Fatalf("reachable = %d", spt.Reachable())
	}
}

func TestBFSFromMiddle(t *testing.T) {
	g := path(t, 5)
	spt, err := g.BFS(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{2, 1, 0, 1, 2}
	for v, w := range want {
		if spt.Dist[v] != w {
			t.Fatalf("dist[%d] = %d, want %d", v, spt.Dist[v], w)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1) // 2,3 isolated from 0
	_ = b.AddEdge(2, 3)
	g := b.Build()
	spt, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if spt.Dist[2] != Unreachable || spt.Parent[3] != Unreachable {
		t.Fatal("unreachable nodes must be marked")
	}
	if spt.Reachable() != 2 {
		t.Fatalf("reachable = %d", spt.Reachable())
	}
	if _, err := spt.PathTo(2); err == nil {
		t.Fatal("PathTo unreachable must error")
	}
}

func TestBFSBadSource(t *testing.T) {
	g := path(t, 3)
	if _, err := g.BFS(-1); err == nil {
		t.Fatal("negative source must error")
	}
	if _, err := g.BFS(3); err == nil {
		t.Fatal("overflow source must error")
	}
	var spt SPT
	if err := g.BFSInto(9, &spt); err == nil {
		t.Fatal("BFSInto bad source must error")
	}
}

func TestBFSIntoMatchesBFS(t *testing.T) {
	g := randomGraph(3, 200, 300)
	var reuse SPT
	for s := 0; s < 20; s++ {
		want, err := g.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.BFSInto(s, &reuse); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if want.Dist[v] != reuse.Dist[v] {
				t.Fatalf("source %d node %d: dist %d vs %d", s, v, want.Dist[v], reuse.Dist[v])
			}
		}
	}
}

func TestPathToFollowsEdges(t *testing.T) {
	g := randomGraph(8, 100, 150)
	spt, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		p, err := spt.PathTo(v)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != 0 || p[len(p)-1] != v {
			t.Fatalf("path endpoints %v for v=%d", p, v)
		}
		if len(p) != int(spt.Dist[v])+1 {
			t.Fatalf("path length %d vs dist %d", len(p)-1, spt.Dist[v])
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path uses non-edge (%d,%d)", p[i], p[i+1])
			}
		}
	}
}

func TestAvgDistPath(t *testing.T) {
	g := path(t, 5)
	spt, _ := g.BFS(0)
	if got, want := spt.AvgDist(), (1.0+2+3+4)/4; got != want {
		t.Fatalf("avg dist = %v, want %v", got, want)
	}
}

func TestAvgDistIsolated(t *testing.T) {
	g := NewBuilder(1).Build()
	spt, _ := g.BFS(0)
	if spt.AvgDist() != 0 {
		t.Fatal("isolated source must have zero avg dist")
	}
}

func TestDistHistogram(t *testing.T) {
	// Star: center 0, leaves 1..5.
	b := NewBuilder(6)
	for v := 1; v < 6; v++ {
		_ = b.AddEdge(0, v)
	}
	g := b.Build()
	spt, _ := g.BFS(0)
	h := spt.DistHistogram()
	if len(h) != 2 || h[0] != 1 || h[1] != 5 {
		t.Fatalf("hist = %v", h)
	}
}

func TestBFSOrderSortedByDist(t *testing.T) {
	g := randomGraph(5, 300, 500)
	spt, _ := g.BFS(7)
	for i := 1; i < len(spt.Order); i++ {
		if spt.Dist[spt.Order[i]] < spt.Dist[spt.Order[i-1]] {
			t.Fatal("BFS order not sorted by distance")
		}
	}
	if spt.Order[0] != 7 {
		t.Fatal("order must start at source")
	}
}

func TestBFSTriangleInequalityProperty(t *testing.T) {
	// For every edge (u,v): |dist(u) - dist(v)| <= 1.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%80) + 2
		g := randomGraph(seed, n, n)
		spt, err := g.BFS(0)
		if err != nil {
			return false
		}
		ok := true
		g.Edges(func(u, v int) {
			du, dv := spt.Dist[u], spt.Dist[v]
			if du == Unreachable || dv == Unreachable {
				if du != dv {
					ok = false // one endpoint reachable, the other not: impossible
				}
				return
			}
			d := du - dv
			if d < -1 || d > 1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSParentDistProperty(t *testing.T) {
	// dist(v) == dist(parent(v)) + 1 for every non-source reachable node.
	f := func(seed int64, nRaw uint8, srcRaw uint8) bool {
		n := int(nRaw%80) + 2
		g := randomGraph(seed, n, n/2)
		src := int(srcRaw) % n
		spt, err := g.BFS(src)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if v == src || spt.Dist[v] == Unreachable {
				continue
			}
			p := spt.Parent[v]
			if spt.Dist[v] != spt.Dist[p]+1 {
				return false
			}
			if !g.HasEdge(v, int(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSLargeRandom(t *testing.T) {
	g := randomGraph(77, 50000, 75000)
	spt, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if spt.Reachable() != g.N() {
		t.Fatalf("spanning-tree construction must keep graph connected; reached %d of %d", spt.Reachable(), g.N())
	}
}

// checkParentValidity asserts Dist[Parent[v]] == Dist[v]-1 over a real edge
// for every reachable non-source node, and Parent == Unreachable exactly
// where Dist is — the shortest-path-tree invariant.
func checkParentValidity(t *testing.T, g *Graph, spt *SPT) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if spt.Dist[v] == Unreachable {
			if spt.Parent[v] != Unreachable {
				t.Fatalf("unreachable node %d has parent %d", v, spt.Parent[v])
			}
			continue
		}
		if v == spt.Source {
			continue
		}
		p := spt.Parent[v]
		if p == Unreachable {
			t.Fatalf("reachable node %d has no parent", v)
		}
		if spt.Dist[p] != spt.Dist[v]-1 {
			t.Fatalf("node %d: Dist[Parent]=%d, want Dist-1=%d", v, spt.Dist[p], spt.Dist[v]-1)
		}
		if !g.HasEdge(v, int(p)) {
			t.Fatalf("parent link (%d,%d) is not an edge", v, p)
		}
	}
}

// BenchmarkBFS50k and BenchmarkBFS50kDense time the serial kernel on a
// sparse (50k nodes, ~150k edges) and a dense low-diameter (50k nodes,
// ~500k edges) random graph from random sources.
func BenchmarkBFS50k(b *testing.B) {
	benchBFS(b, randomGraph(1, 50000, 100000))
}

func BenchmarkBFS50kDense(b *testing.B) {
	benchBFS(b, randomGraph(3, 50000, 450000))
}

func benchBFS(b *testing.B, g *Graph) {
	var spt SPT
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.BFSInto(r.Intn(g.N()), &spt); err != nil {
			b.Fatal(err)
		}
	}
}
